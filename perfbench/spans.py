"""Per-layer spans, recorded from outside the package around calls into its layers.

`install` replaces each traced function with a recording wrapper at the name
its callers look it up under: `cli` calls `closedform.bare_integral` and
`oracle.integrate_two_bessel` through the module, `closedform` calls
`specfun.*` through the module but `wigner_3j`/`wigner_6j` by the names it
imported.  Each span records its kind, start, end, parent span and a note
taken from the call's arguments or result (no state inside the package is
read).  Spans stay in memory until the round ends; `layer_metrics` then
turns them into per-layer figures, and `write_spans` writes them out.

A span's self time is its duration minus the durations of its direct
children; a layer's time is the sum of its spans' self times.
"""

from __future__ import annotations

import time

# kind -> layer; the kinds are the traced functions
LAYERS = {
    "cli.main": "cli",
    "closedform.bare_integral": "closedform",
    "closedform.condition_number": "closedform",
    "closedform.two_bessel_product": "closedform",
    "closedform.two_bessel_equal_order": "closedform",
    "specfun.paper_q_combination_all": "q_float",
    "specfun.legendre_q_all": "q_float",
    "specfun.paper_q_combination_all_dec": "q_ext",
    "specfun.spherical_bessel_j_array": "bessel",
    "wigner.wigner_3j": "wigner",
    "wigner.wigner_6j": "wigner",
    "oracle.integrate_two_bessel": "oracle",
}


class Tracer:
    """Collects spans [kind, start, end, parent index, note, error type]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, kind: str, fn, note=None):
        """`fn` recording a span per call; `note(args, result)` gives the span's note."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [kind, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                raise
            else:
                span[2] = clock()
                if note is not None:
                    span[4] = note(args, result)
                return result
            finally:
                stack.pop()

        return traced


def _wigner_3j_key(args, result):
    a = args[0]
    return ("3j", a.j1, a.j2, a.j3, a.m1, a.m2, a.m3)


def install(tracer: Tracer, closedform, specfun, oracle) -> None:
    """Replace the traced functions of the package's modules with recording wrappers."""
    for name in ("bare_integral", "condition_number", "two_bessel_product", "two_bessel_equal_order"):
        setattr(closedform, name, tracer.wrap(f"closedform.{name}", getattr(closedform, name)))
    for name in ("paper_q_combination_all", "legendre_q_all", "paper_q_combination_all_dec"):
        setattr(specfun, name, tracer.wrap(f"specfun.{name}", getattr(specfun, name)))
    specfun.spherical_bessel_j_array = tracer.wrap(
        "specfun.spherical_bessel_j_array", specfun.spherical_bessel_j_array,
        lambda args, result: int(getattr(result, "size", 1)),
    )
    closedform.wigner_3j = tracer.wrap("wigner.wigner_3j", closedform.wigner_3j, _wigner_3j_key)
    closedform.wigner_6j = tracer.wrap(
        "wigner.wigner_6j", closedform.wigner_6j, lambda args, result: ("6j",) + tuple(args)
    )
    oracle.integrate_two_bessel = tracer.wrap(
        "oracle.integrate_two_bessel", oracle.integrate_two_bessel,
        lambda args, result: result.panels_used,
    )


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one round's spans.

    Returns sums and counts for the round plus the raw per-call durations of
    `bare_integral` (microseconds), which the caller pools over rounds.
    """
    own = _self_times(spans)
    layer_s = {layer: 0.0 for layer in set(LAYERS.values())}
    counts: dict[str, int] = {kind: 0 for kind in LAYERS}
    bare_us = []
    refusals = 0
    q_float_entries = 0
    bessel_points = 0
    oracle_bessel_points = 0
    panels = 0
    distinct = set()
    for s, t in zip(spans, own):
        kind = s[0]
        layer_s[LAYERS[kind]] += t
        counts[kind] += 1
        parent = spans[s[3]][0] if s[3] >= 0 else None
        if kind == "closedform.bare_integral":
            bare_us.append((s[2] - s[1]) * 1e6)
            refusals += s[5] == "FormulaInapplicable"
        elif LAYERS[kind] == "q_float":
            q_float_entries += parent is None or LAYERS[parent] != "q_float"
        elif kind == "specfun.spherical_bessel_j_array":
            bessel_points += s[4] or 0
            if parent == "oracle.integrate_two_bessel":
                oracle_bessel_points += s[4] or 0
        elif LAYERS[kind] == "wigner":
            distinct.add(s[4])
        elif kind == "oracle.integrate_two_bessel":
            panels += s[4] or 0
    oracle_calls = counts["oracle.integrate_two_bessel"]
    return {
        "cli.self_s": layer_s["cli"],
        "closedform.calls": counts["closedform.bare_integral"],
        "closedform.self_s": layer_s["closedform"],
        "closedform.refusals": refusals,
        "closedform.product_calls": counts["closedform.two_bessel_product"],
        "closedform.rescue_calls": counts["specfun.paper_q_combination_all_dec"],
        "specfun.q_float_s": layer_s["q_float"],
        "specfun.q_float_calls": q_float_entries,
        "specfun.q_ext_s": layer_s["q_ext"],
        "specfun.bessel_s": layer_s["bessel"],
        "specfun.bessel_points": bessel_points,
        "wigner.s": layer_s["wigner"],
        "wigner.calls": counts["wigner.wigner_3j"] + counts["wigner.wigner_6j"],
        "wigner.distinct": len(distinct),
        "oracle.self_s": layer_s["oracle"],
        "oracle.calls": oracle_calls,
        # integrate_two_bessel has two Bessel factors, each evaluated at every node
        "oracle.evaluations": oracle_bessel_points / 2,
        "oracle.panels": panels,
        "bare_us": bare_us,
    }


def write_spans(spans: list[list], path) -> None:
    """Write spans as CSV: index, kind, start and end (s), parent index, note, error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,kind,start_s,end_s,parent,note,error\n")
        for i, (kind, start, end, parent, note, error) in enumerate(spans):
            note_text = "" if note is None else str(note).replace(",", " ")
            fh.write(f"{i},{kind},{start:.9f},{end:.9f},{parent},{note_text},{error or ''}\n")
