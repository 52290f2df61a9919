"""Verification report containers shared by all relation checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RelationResult:
    rel_id: str
    status: str  # "pass" | "fail" | "skipped"
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = {"id": self.rel_id, "status": self.status}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class VerificationReport:
    """Outcome of one relation suite, with a stable, deterministic ordering."""

    check: str
    n: int
    degree: int
    relations: list[RelationResult] = field(default_factory=list)
    rank_sl: int | None = None

    @property
    def failed(self) -> int:
        return sum(1 for r in self.relations if r.status == "fail")

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def add(self, result: RelationResult) -> None:
        self.relations.append(result)

    def record(self, rel_id: str, counterexample: dict | None) -> None:
        """Record a checked relation: a pass, or a fail with its counterexample."""
        self.add(RelationResult(rel_id, "pass" if counterexample is None
                                else "fail", counterexample))

    def to_json(self) -> dict:
        out: dict = {"check": self.check, "n": self.n}
        if self.rank_sl is not None:
            out["rank_sl"] = self.rank_sl
        out["degree"] = self.degree
        out["relations"] = [r.to_json() for r in self.relations]
        out["failed"] = self.failed
        return out

    def render_text(self) -> str:
        head = f"suite {self.check}: n={self.n} degree={self.degree}"
        if self.rank_sl is not None:
            head += f" rank_sl={self.rank_sl}"
        lines = [head]
        for r in self.relations:
            if r.status == "pass":
                lines.append(f"  [pass] {r.rel_id}")
            elif r.status == "skipped":
                lines.append(f"  [skip] {r.rel_id}")
            else:
                lines.append(f"  [FAIL] {r.rel_id}")
                if r.counterexample:
                    for key, val in r.counterexample.items():
                        lines.append(f"         {key}: {val}")
        lines.append(f"  {len(self.relations)} relations, {self.failed} failed")
        return "\n".join(lines)
