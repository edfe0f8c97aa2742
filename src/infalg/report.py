"""Named check results with witnesses, used by all verification entry points."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StructureError


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    witness: object = None

    def format(self) -> str:
        if self.ok:
            return f"ok    {self.name}"
        if self.witness is None:
            return f"FAIL  {self.name}"
        return f"FAIL  {self.name}  witness={self.witness!r}"


@dataclass
class Report:
    items: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def add(self, name: str, ok: bool, witness=None) -> None:
        self.items.append(CheckItem(name, ok, witness))

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]

    def witness(self, name: str):
        for item in self.items:
            if item.name == name:
                return item.witness
        return None

    def format(self) -> str:
        return "\n".join(item.format() for item in self.items)

    def require(self, what: str, error=StructureError) -> Report:
        """This report when every item holds; else ``error`` naming ``what``
        and listing the items, with the report attached."""
        if not self.ok:
            raise error(f"{what}:\n{self.format()}", report=self)
        return self
