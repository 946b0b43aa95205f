"""Span recorder for the traced run.

Each public critlat function named in LAYERS is wrapped, and the wrapper is
bound in place of the original in every critlat module that holds it, so
calls between layers become nested spans.  A span is
[name, item id, parent span index, start, end]; spans stay in memory until
the run ends.  Private helpers (_closure_rep, _from_order, _iso_backtrack)
are not wrapped, so their cost lands in the self time of the public
function that called them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from critlat.errors import BudgetExceeded, SizeCapExceeded

REFUSALS = (BudgetExceeded, SizeCapExceeded)


def _found(counts, key, out, args):
    counts[key] += len(out)


def _hit(counts, key, out, args):
    counts[key] += out is not None


def _cons(counts, key, out, args):
    counts[key] += out.n


def _node_elems(counts, key, out, args):
    D = args[0]
    counts[key] += sum(D.lattices[n].n for n in D.poset.elements)


# layer -> {function: (extra stat, how to count it) or None}
LAYERS = {
    "lattice": {
        "validate_lattice": None,
        "enumerate_subuniverses": ("found", _found),
        "subuniverse_closure": None,
        "quotient": None,
        "is_isomorphic": ("hits", _hit),
        "is_distributive": None,
        "product": None,
        "dual": None,
        "lattice_from_json": None,
    },
    "congruence": {
        "con_lattice": ("cons", _cons),
        "principal_congruence": None,
        "conc_of_hom": None,
        "is_boolean": None,
    },
    "variety": {
        "si_quotients": ("found", _found),
        "hs_member": ("hits", _hit),
        "var_leq": None,
        "find_separating_si": None,
    },
    "critpoint": {
        "crit_gate": None,
    },
    "diagrams": {
        "chain_diagram_of_partial": None,
        "directing_diagram": None,
        "glued_diagram": None,
        "extend_diagram": None,
        "product_over": None,
        "apply_conc": ("node_elems", _node_elems),
    },
    "liftings": {
        "identity_lifting": None,
        "dual_lifting": None,
        "verify_lifting": None,
        "find_congruence_chains": ("chains", _found),
        "extract_embedding": None,
        "check_directing_property": None,
    },
}

# con_lattice calls made directly by hs_member: the HS search's share of Con work
_HS_CON = ("variety.hs_member", "congruence.con_lattice")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        for fn, extra in funcs.items():
            base = f"{layer}.{fn}"
            out.append((f"{base}.calls", "count", "lower"))
            out.append((f"{base}.self_s", "s", "lower"))
            if extra is None:
                continue
            if extra[0] == "hits":
                out.append((f"{base}.hit_ratio", "ratio", "higher"))
            else:
                out.append((f"{base}.{extra[0]}", "count", "lower"))
        if layer == "congruence":
            out.append(("congruence.con_lattice.under_hs_member", "count", "lower"))
        out.append((f"{layer}.refused", "count", "lower"))
    return out


def refusal_layer(exc):
    """Layer of the innermost wrapped call that raised a refusal, if traced."""
    return getattr(exc, "bench_layer", None)


class Recorder:
    """Records spans of wrapped calls made while an item is running."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.item = None          # id of the running item; None records nothing
        self._restore = []

    def _wrap(self, name, fn, extra):
        layer = name.split(".")[0]
        spans, stack, counts = self.spans, self.stack, self.counts
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = [name, self.item, stack[-1] if stack else -1, now(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except REFUSALS as exc:
                if not hasattr(exc, "bench_layer"):
                    exc.bench_layer = layer
                raise
            finally:
                span[4] = now()
                stack.pop()
            if extra is not None:
                extra[1](counts, f"{name}.{extra[0]}", out, args)
            return out

        return wrapper

    def install(self):
        """Bind wrappers in every critlat module; undo with uninstall()."""
        modules = [m for nm, m in sys.modules.items()
                   if nm == "critlat" or nm.startswith("critlat.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"critlat.{layer}"]
            for fn_name, extra in funcs.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original, extra)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def metrics(self, refused_by_layer):
        """Per-layer metrics: calls, self time and work counts per function."""
        n = len(self.spans)
        child = [0.0] * n
        calls = Counter()
        self_s = Counter()
        hs_con = 0
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        for k, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += (s[4] - s[3]) - child[k]
            if s[0] == _HS_CON[1] and s[2] >= 0 and self.spans[s[2]][0] == _HS_CON[0]:
                hs_con += 1
        values = {}
        for name, unit, _ in metric_specs():
            parts = name.split(".")
            base, stat = ".".join(parts[:2]), parts[-1]
            if stat == "calls":
                v = calls[base]
            elif stat == "self_s":
                v = self_s[base]
            elif stat == "refused":
                v = refused_by_layer.get(parts[0], 0)
            elif stat == "hit_ratio":
                v = self.counts[f"{base}.hits"] / calls[base] if calls[base] else 0.0
            elif stat == "under_hs_member":
                v = hs_con
            else:
                v = self.counts[name]
            values[name] = {"value": v, "unit": unit}
        return values

    def write(self, path):
        """Write the spans as JSON lines: name, item, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")
