"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the program's functions where they are looked up:
every public function of a layer module is replaced in every ncmlab module
namespace that holds it (each import site), as is a private function that
another module imports, and the methods of each public class are replaced
on the class. A wrapper opens a span: it times the call and charges the
time not covered by nested spans to the callee's layer as self time. Spans
stay in memory as per-function totals; ``remove`` puts every patched
attribute back.

Per-shot and per-trial methods are not spans, because a span on every draw
would cost more than the draw: their time stays with the calling span.
The verifiers ``ToyMac.ver`` and ``ToyCommitment.r2`` are only counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "ncmo", "qsim", "dist", "puzzles", "dcrpuzz", "primitives")

# called once per shot, trial or probe: never wrapped
NO_SPAN = frozenset({
    "dist.check_bits",
    "dist.FiniteDist.prob",
    "dist.FiniteDist.items",
    "dist.FiniteDist.sample",
    "ncmo.OracleOutput.__init__",
    "ncmo.OracleOutput.flat",
    "dcrpuzz.CollisionTriple.__init__",
    "dcrpuzz.CollisionTriple.flat",
    "dcrpuzz.ColSampler.sample",
})

# counted, not timed
COUNT_ONLY = {
    "primitives.ToyMac.ver": "primitives.ver_calls",
    "primitives.ToyCommitment.r2": "primitives.ver_calls",
}

# law-algebra results whose atoms count as dist.atoms_out
DIST_LAW_OPS = frozenset({
    "dist.product", "dist.mixture", "dist.push_forward", "dist.condition",
    "dist.marginal",
})

COUNTERS = (
    "ncmo.shots", "dist.samples_counted", "dist.atoms_out",
    "puzzles.law_atoms", "qsim.trees", "qsim.circuits",
    "qsim.branch_paths", "qsim.node_state_bytes", "primitives.ver_calls",
    "primitives.exact_evals", "dcrpuzz.col_atoms",
)


class Tracer:
    """Spans and counters for the ncmlab layers of this process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, raised]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []
        self._trees: list = []
        self._circuits: dict[int, object] = {}
        self._finite_dist = sys.modules["ncmlab.dist"].FiniteDist
        self._sites = self._find_sites()

    # -- discovery ----------------------------------------------------------

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every patch."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ncmlab" or name.startswith("ncmlab.")}
        imported_elsewhere = {
            id(value) for name, mod in modules.items()
            for value in vars(mod).values()
            if inspect.isfunction(value) and value.__module__ != name}
        sites = []
        for layer in LAYERS:
            mod = modules[f"ncmlab.{layer}"]
            for attr, value in vars(mod).items():
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    if (attr.startswith("_")
                            and id(value) not in imported_elsewhere):
                        continue
                    name = f"{layer}.{attr}"
                    if name in NO_SPAN:
                        continue
                    wrapper = self._wrap(name, value)
                    sites += [(site, key, value, wrapper)
                              for site in modules.values()
                              for key, held in vars(site).items()
                              if held is value]
                elif inspect.isclass(value) and not attr.startswith("_"):
                    for member, raw in vars(value).items():
                        name = f"{layer}.{attr}.{member}"
                        if ((member.startswith("_") and member != "__init__")
                                or name in NO_SPAN):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(self._wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            wrapped = self._wrap(name, raw)
                        else:
                            continue
                        sites.append((value, member, raw, wrapped))
        return sites

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, replacement in self._sites:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counting(COUNT_ONLY[name], fn)
        record = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def _counting(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters -----------------------------------------------------------

    def _hook_for(self, name: str):
        c = self.counters
        fd = self._finite_dist

        def add_len(key):
            def hook(args, kwargs, result):
                c[key] += len(result)
            return hook

        if name in DIST_LAW_OPS:
            return add_len("dist.atoms_out")
        if name == "dcrpuzz.col_law":
            return add_len("dcrpuzz.col_atoms")
        if name.startswith("puzzles."):
            def law_atoms(args, kwargs, result):
                if isinstance(result, fd):
                    c["puzzles.law_atoms"] += len(result)
            return law_atoms
        if name == "dist.empirical":
            def counted(args, kwargs, result):
                c["dist.samples_counted"] += result.shots
            return counted
        if name == "ncmo.oracle_sample_many":
            def shots(args, kwargs, result):
                c["ncmo.shots"] += len(result)
            return shots
        if name == "ncmo.oracle_sample":
            def one_shot(args, kwargs, result):
                c["ncmo.shots"] += 1
            return one_shot
        if name in ("primitives.mac_break_exact", "primitives.com_break_exact"):
            def exact_eval(args, kwargs, result):
                c["primitives.exact_evals"] += 1
            return exact_eval
        if name == "qsim.enumerate_branches":
            def tree(args, kwargs, result):
                c["qsim.trees"] += 1
                self._circuits[id(result.circuit)] = result.circuit
                self._trees.append(result)
            return tree
        return None

    def end_op(self) -> None:
        """Close one op's tree counters; the trees it built are walked here,
        after its clock has stopped."""
        self.counters["qsim.circuits"] += len(self._circuits)
        for tree in self._trees:
            depth = tree.circuit.depth
            todo = [tree.root]
            while todo:
                node = todo.pop()
                self.counters["qsim.node_state_bytes"] += node.state.nbytes
                if len(node.outcomes) == depth:
                    self.counters["qsim.branch_paths"] += 1
                todo.extend(node.children)
        self._trees.clear()
        self._circuits.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"self_s": 0.0, "calls": 0, "raised": 0}
               for layer in LAYERS}
        for name, (calls, self_s, raised) in self.stats.items():
            row = out[name.split(".", 1)[0]]
            row["calls"] += calls
            row["self_s"] += self_s
            row["raised"] += raised
        return out
