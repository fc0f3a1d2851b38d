"""Whole-model kernel code generation: propensities and the fused SSA loop.

The interpreted path (:class:`~repro.stochastic.propensity.CompiledModel` with
``REPRO_KERNEL=interp``) evaluates propensities by calling one small compiled
function per reaction, paying Python call overhead, argument unpacking and
constant-dictionary lookups *R* times per evaluation, and the direct-method
loop around it pays a handful of numpy calls per event.  This module instead
emits **one generated Python module per model** containing three functions:

* ``propensities_all(state, out)`` — the full propensity vector with every
  constant folded to a literal and direct ``state[i]`` indexing (no
  per-reaction call, no tuple unpacking);
* ``propensities_after(r, state, out)`` — recompute only the reactions that
  depend on species changed by reaction ``r`` (the Gibson–Bruck update);
* ``ssa_segment(state, t, t_stop, generator, recorder, events, max_events)``
  — the whole direct-method loop (Gillespie 1977) up to the end of one input
  segment, with species counts and propensities held as Python locals.  Each
  event recomputes only the propensities ``DEPENDENTS`` marks as affected by
  the reaction that fired.

Bit-identity contract
---------------------
The kernels are constructed to produce **bit-identical** values to the
interpreted per-reaction path, and ``ssa_segment`` bit-identical
trajectories to the per-event numpy loop in :mod:`repro.stochastic.ssa`:

* generated scalar expressions mirror :meth:`Expr.to_python` exactly — same
  operator tree, same parenthesisation — so each operation sees the same
  operands in the same order;
* constant folding only replaces *fully constant* subtrees with the value the
  interpreter would compute at run time (evaluated with the same CPython
  float semantics), never re-associates mixed expressions;
* the kernels read state entries as Python floats (``state.item(i)``),
  which halves arithmetic cost versus ``numpy.float64`` scalars while
  producing identical bits: IEEE ``+ - * /`` agree exactly and CPython pow
  matches numpy scalar pow (both defer to libm).  The one observable
  difference is *error style* on pathological laws — dividing by zero or a
  pow domain/overflow error raises ``ZeroDivisionError``/``OverflowError``
  under float semantics where numpy scalars yield ``inf``/``nan`` with a
  warning; no finite propensity value ever differs;
* ``ssa_segment`` sums the propensities in numpy's own pairwise ``.sum()``
  order (:func:`pairwise_sum_source`), selects the firing reaction with a
  running sum in ``np.cumsum`` order (the first index whose sum exceeds the
  threshold, falling through to the last reaction), and applies the same
  floating-point state deltas (verified in
  ``tests/stochastic/test_kernel_parity.py`` and ``test_codegen.py``);
* ``ssa_segment`` makes no numpy call per event: it reads the PCG64 stream
  in blocks of raw words and rebuilds ``generator.exponential`` and
  ``generator.random`` from them bit for bit, in the numpy loop's order,
  with the statements of :mod:`repro.stochastic.ziggurat`.  On every exit,
  exceptions included, it hands the generator back where numpy's calls
  would have left it.  The rebuilt draws are only valid for PCG64
  generators and only while numpy's ziggurat stays the one the tables were
  copied from: :class:`~repro.stochastic.ssa.DirectMethodSimulator` runs
  the kernel only for a PCG64 generator and after
  :func:`~repro.stochastic.ziggurat.block_draws_verified` has passed in the
  process.

The generated source is a plain string: it can be shipped across process
boundaries and ``exec``'d by pool workers (see :mod:`repro.engine.cache`),
which is far cheaper than re-parsing and re-compiling every kinetic-law AST.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import PropensityError, SimulationError
from ..sbml.ast import FUNCTIONS, BinOp, Call, Expr, Neg, Num, Sym
from . import ziggurat

__all__ = [
    "KERNEL_ENV_VAR",
    "BACKEND_CODEGEN",
    "BACKEND_INTERP",
    "KERNEL_FORMAT",
    "default_backend",
    "ReactionKernelSpec",
    "dependents_table",
    "generate_kernel_source",
    "pairwise_sum_source",
    "PropensityKernel",
    "compile_kernel",
    "load_kernel",
    "kernel_namespace",
]

#: Environment variable selecting the propensity backend for newly compiled
#: models: ``codegen`` (default, generated whole-model kernels) or ``interp``
#: (the documented per-reaction interpreted fallback).
KERNEL_ENV_VAR = "REPRO_KERNEL"
BACKEND_CODEGEN = "codegen"
BACKEND_INTERP = "interp"

#: Version stamp embedded in every generated module.  A worker handed kernel
#: source from a different package version refuses to load it (and recompiles
#: from the model instead of silently running a stale kernel).
KERNEL_FORMAT = 3

#: Above this many generated update statements the per-reaction incremental
#: functions would bloat the module (dense dependency graphs are O(R^2));
#: ``propensities_after`` and each ``ssa_segment`` event then degrade to a
#: full recompute, which is always correct because untouched reactions
#: recompute to their previous values.
_AFTER_STATEMENT_CAP = 20_000

#: Branches per ``if``/``elif`` chain in the generated reaction selection.
#: CPython compiles a flat chain recursively (a 5000-branch chain raises
#: ``RecursionError``), so longer selections scan blocks of this many.
_SELECT_BLOCK = 64


def default_backend() -> str:
    """The backend selected by ``REPRO_KERNEL`` (``codegen`` when unset)."""
    value = os.environ.get(KERNEL_ENV_VAR, "").strip().lower() or BACKEND_CODEGEN
    if value not in (BACKEND_CODEGEN, BACKEND_INTERP):
        raise SimulationError(
            f"unknown propensity backend {value!r} in ${KERNEL_ENV_VAR}; "
            f"choose {BACKEND_CODEGEN!r} or {BACKEND_INTERP!r}",
        )
    return value


@dataclass(frozen=True)
class ReactionKernelSpec:
    """Everything codegen needs to know about one reaction.

    ``species_args`` maps each species symbol the law reads to its state
    column; ``constants`` is the fully folded constant environment (global
    parameters, compile-time overrides, then local parameters — local values
    shadow globals, exactly as in SBML); ``changes`` lists the
    ``(state column, delta)`` pairs applied when the reaction fires
    (boundary species excluded).
    """

    rid: str
    expr: Expr
    species_args: Tuple[Tuple[str, int], ...]
    constants: Mapping[str, float]
    changes: Tuple[Tuple[int, float], ...]


def dependents_table(
    law_species: Sequence[Iterable[str]],
    changed_species: Sequence[Iterable[str]],
) -> List[List[int]]:
    """Reaction dependency graph in one pass over a species→readers index.

    ``dependents[r]`` lists every reaction (including ``r`` itself) whose
    kinetic law reads a species changed when ``r`` fires — the set Gibson–
    Bruck must recompute.  Built as species→readers index + one union per
    reaction, i.e. O(R · deps) instead of the O(R²) all-pairs set
    intersections it replaces.
    """
    readers: Dict[str, List[int]] = {}
    for j, symbols in enumerate(law_species):
        for sid in symbols:
            readers.setdefault(sid, []).append(j)
    dependents: List[List[int]] = []
    for r, changed in enumerate(changed_species):
        deps = {r}
        for sid in changed:
            deps.update(readers.get(sid, ()))
        dependents.append(sorted(deps))
    return dependents


# ---------------------------------------------------------------------------
# Expression rendering
# ---------------------------------------------------------------------------


def _literal(value: float) -> str:
    """A Python literal that round-trips ``value`` exactly."""
    value = float(value)
    if math.isinf(value):
        return 'float("inf")' if value > 0 else 'float("-inf")'
    if math.isnan(value):
        return 'float("nan")'
    return repr(value)


def _fold_constants(expr: Expr, constants: Mapping[str, float]) -> Expr:
    """Replace fully constant subtrees with the value the interpreter computes.

    Folding is bottom-up and only collapses subtrees whose leaves are all
    constants, evaluated with the exact same CPython float operations the
    interpreted path performs at run time — so the folded literal is
    bit-identical to the runtime value.  Subtrees whose evaluation raises
    (division by zero, overflow, domain errors) are left unfolded so the
    error still occurs at simulation time, as it does today.
    """
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Sym):
        if expr.name in constants:
            return Num(float(constants[expr.name]))
        return expr
    if isinstance(expr, Neg):
        folded: Expr = Neg(_fold_constants(expr.operand, constants))
        children: Tuple[Expr, ...] = (folded.operand,)
    elif isinstance(expr, BinOp):
        folded = BinOp(
            expr.op,
            _fold_constants(expr.left, constants),
            _fold_constants(expr.right, constants),
        )
        children = (folded.left, folded.right)
    elif isinstance(expr, Call):
        folded = Call(expr.func, tuple(_fold_constants(a, constants) for a in expr.args))
        children = folded.args
    else:  # pragma: no cover - Expr has no other node types
        return expr
    if all(isinstance(child, Num) for child in children):
        try:
            return Num(folded.evaluate({}))
        except Exception:
            return folded
    return folded


class _FunctionBody:
    """Collects preamble statements (temporaries) for one generated function."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._counter = 0

    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"


_ATOM_TYPES = (Num, Sym)


def _render(expr: Expr, names: Mapping[str, str], body: _FunctionBody) -> str:
    """Render a (folded) expression to Python source.

    Mirrors :meth:`Expr.to_python` exactly in operator structure so the
    generated code performs the same operations in the same order as the
    interpreted per-reaction functions.  ``names`` maps species symbols to
    hoisted local variables; every other symbol must have been folded away.
    """
    if isinstance(expr, Num):
        return _literal(expr.value)
    if isinstance(expr, Sym):
        try:
            return names[expr.name]
        except KeyError:
            # Matches compile_function's diagnostic for e.g. `time`.
            raise PropensityError(
                f"symbol {expr.name!r} is neither an argument nor a supplied constant",
            ) from None
    if isinstance(expr, Neg):
        return f"(-{_render(expr.operand, names, body)})"
    if isinstance(expr, BinOp):
        left = _render(expr.left, names, body)
        right = _render(expr.right, names, body)
        if expr.op == "^":
            return f"({left} ** {right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, Call):
        if expr.func in ("hill_act", "hill_rep"):
            inlined = _render_hill_inline(expr, names, body)
            if inlined is not None:
                return inlined
        args = ", ".join(_render(a, names, body) for a in expr.args)
        return f"_fn_{expr.func}({args})"
    raise PropensityError(f"cannot generate code for expression node {expr!r}")


def _render_hill_inline(expr: Call, names: Mapping[str, str], body: _FunctionBody):
    """Inline ``hill_act``/``hill_rep`` when K and n folded to literals.

    The Hill functions are the inner-loop workhorses of genetic gate models;
    inlining removes a Python call per reaction per event and folds ``K^n``
    to a literal.  The emitted expression replicates the scalar helpers'
    bodies operation-for-operation (including the ``x <= 0`` guard and the
    single evaluation of ``x^n``), so the value is bit-identical.
    """
    x, k, n = expr.args
    if not (isinstance(k, Num) and isinstance(n, Num)):
        return None
    k_value, n_value = float(k.value), float(n.value)
    try:
        kn = k_value**n_value  # the same CPython pow _hill_* performs at run time
    except Exception:
        return None
    xs = _render(x, names, body)
    if not isinstance(x, _ATOM_TYPES):
        # Guard and power both read x; a temporary keeps it single-evaluation.
        temp = body.temp()
        body.lines.append(f"{temp} = {xs}")
        xs = temp
    kn_lit, n_lit = _literal(kn), _literal(n_value)
    if expr.func == "hill_rep":
        return f"(1.0 if {xs} <= 0.0 else ({kn_lit} / ({kn_lit} + {xs} ** {n_lit})))"
    xn = body.temp()
    return f"(0.0 if {xs} <= 0.0 else (({xn} := {xs} ** {n_lit}) / ({kn_lit} + {xn})))"


# ---------------------------------------------------------------------------
# Module generation
# ---------------------------------------------------------------------------


def _int_tuple(values: Iterable[int]) -> str:
    items = ", ".join(str(int(v)) for v in values)
    return f"({items},)" if items else "()"


@dataclass
class _RenderedReaction:
    """One reaction's scalar snippet, reusable across generated functions."""

    index: int
    preamble: List[str]
    expression: str
    used_species: Tuple[Tuple[str, int], ...]

    def assign(self, target: str) -> List[str]:
        """Statements storing the clamped propensity into ``target``."""
        return [
            *self.preamble,
            f"_v = {self.expression}",
            "if _v > 0.0:",
            f"    {target} = _v",
            "elif _v != _v:",
            f"    _nan({self.index})",
            "else:",
            f"    {target} = 0.0",
        ]


def _scalar_reaction(spec: ReactionKernelSpec, r: int, counter: _FunctionBody) -> _RenderedReaction:
    folded = _fold_constants(spec.expr, spec.constants)
    used = tuple((sid, idx) for sid, idx in spec.species_args if sid in set(folded.symbols()))
    names = {sid: f"_s{idx}" for sid, idx in used}
    body = _FunctionBody()
    body._counter = counter._counter
    rendered = _render(folded, names, body)
    counter._counter = body._counter  # keep temporaries unique module-wide
    if "_fn_floor(" in rendered or "_fn_ceil(" in rendered:
        # math.floor/ceil return ints; convert as a float64 array store does,
        # so a propensity held in a local sums like the stored one.
        rendered = f"float({rendered})"
    return _RenderedReaction(r, body.lines, rendered, used)


def _emit_function(
    lines: List[str],
    name: str,
    arg: str,
    reactions: Sequence[_RenderedReaction],
) -> None:
    lines.append(f"def {name}({arg}, out):")
    hoisted = sorted(
        {(sid, idx) for block in reactions for sid, idx in block.used_species},
        key=lambda item: item[1],
    )
    for _, idx in hoisted:
        # .item() yields a Python float: bit-identical values, ~2x cheaper
        # arithmetic than numpy scalar ops (see module docstring).
        lines.append(f"    _s{idx} = {arg}.item({idx})")
    for block in reactions:
        lines.extend(f"    {line}" for line in block.assign(f"out[{block.index}]"))
    lines.append("    return out")
    lines.append("")


def _sequential_sum(start: str, terms: Sequence[str]) -> str:
    expression = start
    for term in terms:
        expression = f"({expression} + {term})"
    return expression


def _pairwise_sum(terms: Sequence[str]) -> str:
    """numpy's pairwise summation of a contiguous block (``pairwise_sum``)."""
    n = len(terms)
    if n < 8:
        return _sequential_sum("-0.0", terms)
    if n <= 128:
        full = n - n % 8
        acc = list(terms[:8])
        for i in range(8, full, 8):
            for j in range(8):
                acc[j] = f"({acc[j]} + {terms[i + j]})"
        combined = (
            f"((({acc[0]} + {acc[1]}) + ({acc[2]} + {acc[3]})) + "
            f"(({acc[4]} + {acc[5]}) + ({acc[6]} + {acc[7]})))"
        )
        return _sequential_sum(combined, terms[full:])
    half = n // 2
    half -= half % 8
    return f"({_pairwise_sum(terms[:half])} + {_pairwise_sum(terms[half:])})"


def pairwise_sum_source(terms: Sequence[str]) -> str:
    """A Python expression summing ``terms`` in numpy's ``.sum()`` order.

    numpy reduces a contiguous float64 vector by adding its pairwise sum to
    the identity ``+0.0``.  The pairwise sum adds fewer than 8 values
    sequentially onto ``-0.0``; up to 128 go into eight stride-8 accumulators
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then a sequential
    tail; longer blocks split at ``n // 2`` rounded down to a multiple of 8
    and recurse.  (Below 8 terms, ``0.0 + (-0.0 + v0 + ...)`` equals
    ``0.0 + v0 + ...`` for every input, so the identity is the start value.)
    Emitting the same order keeps the fused loop's ``total`` — and with it
    the waiting time and the overshoot fall-through — bit-identical to
    ``float(propensities.sum())``.
    """
    if len(terms) < 8:
        return _sequential_sum("0.0", terms)
    return f"(0.0 + {_pairwise_sum(terms)})"


def _selection(
    specs: Sequence[ReactionKernelSpec],
    rendered: Sequence[_RenderedReaction],
    dependents: Sequence[Sequence[int]],
    incremental: bool,
) -> List[str]:
    """The reaction-selection chain, each branch firing its reaction.

    A running sum in ``np.cumsum`` order picks the first reaction whose
    cumulative propensity exceeds ``_threshold``; the last reaction is the
    unconditional fall-through (the numpy loop's overshoot clamp).  Chains
    are at most :data:`_SELECT_BLOCK` branches long: a miss sets ``_b`` to
    the next block, whose chain continues the same running sum.  A branch
    applies its reaction's state deltas, then recomputes the propensities
    that depend on them (all of them, at the loop top, for dense models).
    """
    last = len(specs) - 1

    def fire(r: int) -> List[str]:
        statements = [f"_s{idx} += {_literal(delta)}" for idx, delta in specs[r].changes]
        if incremental:
            for j in dependents[r]:
                statements.extend(rendered[j].assign(f"_p{j}"))
        return statements or ["pass"]

    starts = range(0, len(specs), _SELECT_BLOCK)
    lines: List[str] = ["_b = 0"] if len(starts) > 1 else []
    for k, start in enumerate(starts):
        block = range(start, min(start + _SELECT_BLOCK, len(specs)))
        pad = "    " if k else ""
        if k:
            lines.append(f"if _b == {k}:")
        chain = [r for r in block if r != last]
        for position, r in enumerate(chain):
            keyword = "elif" if position else "if"
            running = f"_p{r}" if r == 0 else f"_c + _p{r}"
            lines.append(f"{pad}{keyword} (_c := {running}) > _threshold:")
            lines.extend(f"{pad}    {line}" for line in fire(r))
        if chain:
            lines.append(f"{pad}else:")
            pad += "    "
        tail = fire(last) if last in block else [f"_b = {k + 1}"]
        lines.extend(pad + line for line in tail)
    return lines


def _emit_ssa_segment(
    lines: List[str],
    specs: Sequence[ReactionKernelSpec],
    rendered: Sequence[_RenderedReaction],
    dependents: Sequence[Sequence[int]],
    n_species: int,
    incremental: bool,
) -> None:
    """Emit ``ssa_segment``: the direct-method loop to the end of one segment.

    The statement-for-statement counterpart of the numpy loop in
    :mod:`repro.stochastic.ssa` (see the module docstring for the
    bit-identity argument).  ``recorder.fill_before`` runs only when ``t``
    crosses the next sample time, where it is the same call the numpy loop
    makes after every event (and a no-op there otherwise).  ``generator``
    must be PCG64-backed (see :func:`~repro.stochastic.ziggurat.block_draws_verified`).
    """
    species = [f"_s{i}" for i in range(n_species)]
    row = f"({', '.join(species)},)" if species else "()"
    compute_all = [line for block in rendered for line in block.assign(f"_p{block.index}")]
    total = pairwise_sum_source([f"_p{r}" for r in range(len(specs))])

    body = [
        "if t >= t_stop:",
        "    return events",
    ]
    if species:
        body.append(f"{', '.join(species)}, = state.tolist()")
    # Samples before t are already filled: this call only reads the next
    # sample time, past which the loop calls the recorder again.
    body += ["_fill = recorder.fill_before", f"_next = _fill(t, {row})"]
    loop = []
    if incremental:
        body.extend(compute_all)
    else:
        loop.extend(compute_all)
    loop.extend(
        [
            f"_total = {total}",
            "if _total <= 0.0:",
            "    break",
            *ziggurat.draw_exponential("_tau", "(1.0 / _total)"),
            "if t + _tau >= t_stop:",
            "    break",
            "t += _tau",
            "if t > _next:",
            f"    _next = _fill(t, {row})",
            *ziggurat.draw_uniform("_threshold", "_total"),
            *_selection(specs, rendered, dependents, incremental),
            "events += 1",
            "if events > max_events:",
            "    _exceeded(max_events)",
        ],
    )
    body.extend(ziggurat.WORDS_OPEN)
    body += ["try:", "    while True:"]
    body.extend(f"        {line}" for line in loop)
    body.append("finally:")
    body.extend(f"    {line}" for line in ziggurat.WORDS_CLOSE)
    if species:
        body.append(f"state[:] = {row}")
    body.append("return events")

    lines.append("def ssa_segment(state, t, t_stop, generator, recorder, events, max_events):")
    lines.extend(f"    {line}" for line in body)
    lines.append("")


def generate_kernel_source(
    model_sid: str,
    specs: Sequence[ReactionKernelSpec],
    dependents: Sequence[Sequence[int]],
    n_species: int,
) -> str:
    """Emit the Python module source of one model's kernels."""
    n_reactions = len(specs)
    counter = _FunctionBody()
    rendered = [_scalar_reaction(spec, r, counter) for r, spec in enumerate(specs)]

    lines: List[str] = [
        f'"""Propensity kernel generated for model {model_sid!r} '
        f'({n_reactions} reactions, {n_species} species).',
        "",
        "Generated by repro.stochastic.codegen — do not edit; regenerate from the",
        "model instead.  Executed inside the namespace built by kernel_namespace().",
        '"""',
        "",
        f"KERNEL_FORMAT = {KERNEL_FORMAT}",
        f"N_REACTIONS = {n_reactions}",
        f"N_SPECIES = {n_species}",
        f"_REACTION_IDS = ({', '.join(repr(s.rid) for s in specs)},)",
        f"DEPENDENTS = ({', '.join(_int_tuple(deps) for deps in dependents)},)",
        "",
        "",
        "def _nan(r):",
        "    raise PropensityError('propensity of reaction %r is NaN' % (_REACTION_IDS[r],))",
        "",
        "",
        "def _exceeded(max_events):",
        "    raise SimulationError(",
        "        'simulation exceeded %s reaction events before t_end' % (max_events,)",
        "    )",
        "",
        "",
    ]

    _emit_function(lines, "propensities_all", "state", rendered)
    lines.append("")

    total_after_statements = sum(len(dependents[r]) for r in range(n_reactions))
    incremental = total_after_statements <= _AFTER_STATEMENT_CAP
    if incremental:
        for r in range(n_reactions):
            _emit_function(
                lines,
                f"_after_{r}",
                "state",
                [rendered[j] for j in dependents[r]],
            )
        lines.append(f"_AFTER = ({', '.join(f'_after_{r}' for r in range(n_reactions))},)")
        lines.extend(
            [
                "",
                "",
                "def propensities_after(r, state, out):",
                "    _AFTER[r](state, out)",
                "    return out",
                "",
            ],
        )
    else:
        lines.extend(
            [
                "",
                "def propensities_after(r, state, out):",
                "    # Dense dependency graph: per-reaction update functions would",
                "    # exceed the generated-module size cap, so fall back to a full",
                "    # recompute (untouched reactions recompute to the same values).",
                "    return propensities_all(state, out)",
                "",
            ],
        )
    lines.append("")
    _emit_ssa_segment(lines, specs, rendered, dependents, n_species, incremental)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Kernel loading
# ---------------------------------------------------------------------------


def kernel_namespace() -> Dict[str, object]:
    """The execution namespace every generated kernel module runs in."""
    namespace: Dict[str, object] = {
        "PropensityError": PropensityError,
        "SimulationError": SimulationError,
        **ziggurat.statement_namespace(),
    }
    for name, (_, fn) in FUNCTIONS.items():
        namespace[f"_fn_{name}"] = fn
    return namespace


class PropensityKernel:
    """The loaded (exec'd) kernels of one generated module."""

    __slots__ = (
        "source",
        "n_reactions",
        "n_species",
        "dependents",
        "propensities_all",
        "propensities_after",
        "ssa_segment",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PropensityKernel(reactions={self.n_reactions}, species={self.n_species})"


def compile_kernel(source: str):
    """Byte-compile a generated kernel module (without executing it).

    Split out of :func:`load_kernel` because byte-compilation dominates
    kernel loading time: the ensemble engine compiles once in the parent and
    ships the marshalled code to every worker, which then only pays the
    (microsecond) ``exec``.  Returns a tuple of code objects to execute in
    order: ``ssa_segment`` compiles apart from the rest of the module, so the
    compiler's working memory peaks with the larger part, not with both.
    """
    head, marker, tail = source.partition("\ndef ssa_segment(")
    # Newline padding keeps the second part's line numbers those of ``source``.
    parts = [head, "\n" * (head.count("\n") + 1) + marker[1:] + tail] if marker else [source]
    try:
        return tuple(compile(part, "<repro-propensity-kernel>", "exec") for part in parts)
    except SyntaxError as error:
        raise PropensityError(f"invalid propensity kernel source: {error}") from error


def load_kernel(source: str, code=None) -> PropensityKernel:
    """``exec`` a generated kernel module and wrap its entry points.

    This is the only compilation work a pool worker performs when the parent
    ships kernel source alongside the pickled model: one ``exec`` replaces
    per-reaction AST analysis, per-reaction ``compile_function`` calls and
    the dependency-graph build.  ``code`` (:func:`compile_kernel`'s result for
    exactly ``source``) skips even the byte-compilation.
    """
    namespace = kernel_namespace()
    if code is None:
        code = compile_kernel(source)
    for part in code:
        exec(part, namespace)  # noqa: S102 - code generated from a validated AST
    if namespace.get("KERNEL_FORMAT") != KERNEL_FORMAT:
        raise PropensityError(
            "propensity kernel source has an incompatible format "
            f"(expected {KERNEL_FORMAT}, got {namespace.get('KERNEL_FORMAT')!r}); "
            "regenerate it from the model",
        )
    kernel = PropensityKernel()
    kernel.source = source
    kernel.n_reactions = int(namespace["N_REACTIONS"])
    kernel.n_species = int(namespace["N_SPECIES"])
    kernel.dependents = [list(deps) for deps in namespace["DEPENDENTS"]]
    kernel.propensities_all = namespace["propensities_all"]
    kernel.propensities_after = namespace["propensities_after"]
    kernel.ssa_segment = namespace["ssa_segment"]
    return kernel
