"""In-memory span tracer that wraps phyloinv's layer entry points from outside.

A function is wrapped under every name it is looked up by: each phyloinv
module that imported it gets the wrapper in place of the original, so a
call through ``pipeline.flow_from_leaves`` is recorded exactly like a call
through ``flows.flow_from_leaves``.  ``Echelon.add`` is wrapped on the
class.  Nothing inside ``src/`` changes; :meth:`Tracer.uninstall` puts every
original binding back.

A span is ``(name, start, end, parent, rep)`` with ``parent`` the index of
the enclosing span (-1 at the top).  Self time is a span's duration minus
the time its direct children cover (children never overlap: the program is
single-threaded).
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) of every wrapped entry point, by layer.
TARGETS = (
    ("trees", "parse_newick"),
    ("trees", "canonical_rooting"),
    ("trees", "decompose_at_edge"),
    ("tripod", "adm_basis"),
    ("tripod", "matrix_to_binomial"),
    ("tripod", "relabel_matrix"),
    ("pipeline", "join_sets"),
    ("pipeline", "claw_set"),
    ("pipeline", "special_quadric"),
    ("pipeline", "nonspecial_quadric"),
    ("flows", "flow_from_leaves"),
    ("flows", "binomial_from_multisets"),
    ("flows", "iter_flows"),
    ("oracle", "verify_complete_intersection"),
    ("oracle", "monomial_matrix_rank"),
    ("oracle", "lattice_report"),
    ("oracle", "exponent_vector"),
    ("lattice", "det"),
    ("lattice", "sparse_span_certificate"),
    ("lattice", "invariant_factors"),
)

# Bindings that must be replaced for the trace to see the calls that matter:
# the module a caller looks the name up in, not only the defining one.
REQUIRED_BINDINGS = (
    ("flows", "flow_from_leaves"),
    ("pipeline", "flow_from_leaves"),
    ("tripod", "flow_from_leaves"),
    ("oracle", "sparse_span_certificate"),
    ("oracle", "det"),
    ("oracle", "iter_flows"),
    ("lattice", "invariant_factors"),
)


class Tracer:
    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self._restore: list = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.rep)

    def _wrap(self, name: str, fn, after=None):
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_iter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function extras -------------------------------------------

    def _after_join_sets(self, args, out):
        _ctx, _group, s1, s2 = args[:4]
        self.counts["pipeline.edge_quadrics"] += len(out) - len(s1) - len(s2)

    def _after_span_cert(self, args, out):
        rank, leftover = out
        self.counts["lattice.span_unit_pivots"] += rank - len(leftover)

    def _after_invariant_factors(self, args, out):
        self.counts["lattice.span_leftover_rows"] += len(args[0])

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every loaded module of ``package``."""
        prefix = package.__name__
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == prefix or k.startswith(prefix + "."))]
        extras = {
            "join_sets": self._after_join_sets,
            "sparse_span_certificate": self._after_span_cert,
            "invariant_factors": self._after_invariant_factors,
        }
        for modname, attr in TARGETS:
            original = getattr(sys.modules[f"{prefix}.{modname}"], attr)
            if attr == "iter_flows":
                wrapper = self._counting_iter("iter_flows.yielded", original)
            else:
                wrapper = self._wrap(attr, original, extras.get(attr))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
                        self.bindings[attr].append(m.__name__.rsplit(".", 1)[-1])

        echelon = sys.modules[f"{prefix}.lattice"].Echelon
        add = echelon.add
        counts = self.counts
        timed = self._wrap("Echelon.add", add)

        def echelon_add(ech, vec):
            before = ech.rank
            changed = timed(ech, vec)
            counts["lattice.echelon_add_calls"] += 1
            if ech.rank > before:
                counts["lattice.echelon_rank_raises"] += 1
            return changed

        self._restore.append((echelon, "add", add))
        echelon.add = echelon_add
        self.bindings["Echelon.add"].append("lattice")

        missing = [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
                   if m not in self.bindings[a]]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace could not bind {missing}")

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, name): calls, outermost inclusive time, self time.

        The phase is the name of the top-level span a span sits under.
        Inclusive time counts only spans with no ancestor of the same name,
        so a recursive function is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        phases: list[str] = []
        names_above: list[frozenset] = []
        for name, t0, t1, parent, _rep in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                phases.append(phases[parent])
                names_above.append(names_above[parent] | {name})
            else:
                phases.append(name)
                names_above.append(frozenset((name,)))
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i, (name, t0, t1, parent, _rep) in enumerate(spans):
            rec = out.setdefault((phases[i], name),
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child_time[i]
            if parent < 0 or name not in names_above[parent]:
                rec["incl_s"] += t1 - t0
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                name, t0, t1, parent, rep = span
                fh.write(json.dumps([sid, name, t0, t1, parent, rep]) + "\n")
