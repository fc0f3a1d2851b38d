"""Whole-model kernel code generation: propensities and the fused SSA loop.

The interpreted path (:class:`~repro.stochastic.propensity.CompiledModel` with
``REPRO_KERNEL=interp``) evaluates propensities by calling one small compiled
function per reaction, paying Python call overhead, argument unpacking and
constant-dictionary lookups *R* times per evaluation, and the direct-method
loop around it pays a handful of numpy calls per event.  This module instead
emits **one generated Python module per model**: a preamble (the model's
shape, its ``DEPENDENTS`` table and the ``_clamp``/``_exceeded`` helpers) and
three parts, each opened by a ``# part: NAME`` line:

* ``ssa_segment(state, t, t_stop, words, recorder, events, max_events)``
  — the whole direct-method loop (Gillespie 1977) up to the end of one input
  segment, with species counts, propensities and their partial sums held as
  Python locals.  Each law is split into single-species factors held in
  locals shared by every law that contains them (a factor containing
  another's reads its local); an event recomputes the factors of the species
  the fired reaction changed, the laws that read one of those species (its
  own law only if it does) and the partial sums above those laws.  It draws
  from ``words``, the run's :class:`~repro.stochastic.ziggurat.WordBlock`.
  When ``t`` passes a sample time the loop appends the state row to the
  recorder's list itself
  (:class:`~repro.stochastic.sampling.SampleRecorder` fields ``times``,
  ``rows`` and ``cursor``);
* ``propensities_all(state, out)`` — the full propensity vector with every
  constant folded to a literal and direct ``state[i]`` indexing (no
  per-reaction call, no tuple unpacking);
* ``propensities_after(r, state, out)`` — recompute only the reactions that
  depend on species changed by reaction ``r`` (the Gibson–Bruck update),
  through one ``_after_r`` function per reaction.

Loading a kernel (:func:`load_kernel`) compiles only the preamble and
``ssa_segment``; the other parts (:data:`ON_DEMAND_PARTS`) compile from the
same source the first time a simulator reads them.  Every law stores its
clamped value in one line,
``_pN = _v if (_v := <law>) > 0.0 else _clamp(_v, N)``: ``_clamp`` raises
:class:`~repro.errors.PropensityError` on NaN and otherwise returns ``0.0``.

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
* a factor is a subtree of a folded law computed on its own and read where
  it stood, so the law still performs the same operations on the same
  operands; factors are matched by exact structure, literal bits included,
  and a factor's value is current whenever a law reads it, because it is
  recomputed at segment entry and in every branch that changes its species;
* the kernels read state entries as Python floats (``state.item(i)``),
  which halves arithmetic cost versus ``numpy.float64`` scalars while
  producing identical bits: IEEE ``+ - * /`` agree exactly and CPython pow
  matches numpy scalar pow (both defer to libm).  The one observable
  difference is *error style* on pathological laws — dividing by zero or a
  pow domain/overflow error raises ``ZeroDivisionError``/``OverflowError``
  under float semantics where numpy scalars yield ``inf``/``nan`` with a
  warning; no finite propensity value ever differs;
* ``ssa_segment`` sums the propensities in numpy's own pairwise ``.sum()``
  order, each partial sum a local (:class:`SumTree`).  A partial sum is
  current whenever it is read: all are computed at segment entry, and a
  branch recomputes, in order, every one above a law it recomputed, so each
  holds the value a full recompute would.  The top one is the total without
  numpy's final ``+0.0``, which changes only a ``-0.0`` sum, and a clamped
  propensity is ``+0.0`` or positive (or ``inf``), so no partial sum is
  ``-0.0``;
* it selects the firing reaction in ``np.cumsum`` order (the first index
  whose cumulative sum exceeds the threshold, falling through to the last
  reaction): below 8 reactions the partial sums *are* the cumulative sums
  (``-0.0 + v`` is ``v``), from 8 on a running sum recomputes them.  It
  applies the same floating-point state deltas (verified in
  ``tests/stochastic/test_kernel_parity.py`` and ``test_codegen.py``);
* ``ssa_segment`` makes no numpy call per event: it reads the PCG64 stream
  in blocks of raw words, decodes each block with numpy into lists of first
  tries and uniforms, and rebuilds ``generator.exponential`` and
  ``generator.random`` from them bit for bit, in the numpy loop's order,
  with the statements of :mod:`repro.stochastic.ziggurat`.  The block lives
  in the run's :class:`~repro.stochastic.ziggurat.WordBlock`, which
  carries it from one segment to the next; closing it when the run ends,
  exceptions included, hands the generator back where numpy's calls would
  have left it.  The rebuilt draws are only valid for PCG64 generators and
  only while numpy's ziggurat stays the one the tables were copied from:
  :class:`~repro.stochastic.ssa.DirectMethodSimulator` runs the kernel only
  for a PCG64 generator and after
  :func:`~repro.stochastic.ziggurat.block_draws_verified` has passed in the
  process.

The generated source is a plain string, which is how a pickled
:class:`~repro.stochastic.propensity.CompiledModel` carries its kernel.  The
ensemble engine generates no code for its workers: each worker generates
and loads the kernels it runs (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    "SumTree",
    "ON_DEMAND_PARTS",
    "PropensityKernel",
    "compile_part",
    "load_kernel",
    "kernel_namespace",
]

#: Environment variable selecting the propensity backend for newly compiled
#: models: ``codegen`` (default, generated whole-model kernels) or ``interp``
#: (the documented per-reaction interpreted fallback).
KERNEL_ENV_VAR = "REPRO_KERNEL"
BACKEND_CODEGEN = "codegen"
BACKEND_INTERP = "interp"

#: Version stamp embedded in every generated module.  Kernel source from a
#: different package version (say, in a compiled model pickled by it) is
#: refused rather than silently run as a stale kernel.
KERNEL_FORMAT = 7

#: Starts the line opening each part of a generated module.
_PART_MARK = "# part: "

#: Above this many generated update statements the per-reaction incremental
#: functions would bloat the module (dense dependency graphs are O(R^2));
#: ``propensities_after`` and each ``ssa_segment`` event then degrade to a
#: full recompute, which is always correct because untouched reactions
#: recompute to their previous values.  The partial-sum updates of the
#: ``ssa_segment`` branches have the same cap; above it each event
#: recomputes every partial sum instead.
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
    """One reaction's scalar snippet, reusable across generated functions.

    ``tree`` is the folded law ``expression`` renders; ``integral`` marks a
    law whose value ``floor``/``ceil`` can leave an ``int`` (the expression
    converts it to ``float``).
    """

    index: int
    preamble: List[str]
    expression: str
    used_species: Tuple[Tuple[str, int], ...]
    tree: Expr
    integral: bool

    def assign(self, target: str) -> List[str]:
        """Statements storing the clamped propensity into ``target``.

        One line per law: a positive value is stored as it is, and
        ``_clamp`` turns any other into ``0.0``, raising on NaN.
        """
        return [
            *self.preamble,
            f"{target} = _v if (_v := {self.expression}) > 0.0 else _clamp(_v, {self.index})",
        ]


def _render_counted(
    expr: Expr, names: Mapping[str, str], counter: _FunctionBody
) -> Tuple[List[str], str]:
    """``(preamble, expression)`` of ``expr``, its temporaries numbered on
    from ``counter`` so they stay unique module-wide."""
    body = _FunctionBody()
    body._counter = counter._counter
    rendered = _render(expr, names, body)
    counter._counter = body._counter
    return body.lines, rendered


def _render_law(
    r: int,
    tree: Expr,
    names: Mapping[str, str],
    used: Tuple[Tuple[str, int], ...],
    counter: _FunctionBody,
    integral: Optional[bool] = None,
) -> _RenderedReaction:
    """Render law ``r``; ``integral=None`` reads ``floor``/``ceil`` off the rendering."""
    preamble, rendered = _render_counted(tree, names, counter)
    if integral is None:
        integral = "_fn_floor(" in rendered or "_fn_ceil(" in rendered
    if integral:
        # math.floor/ceil return ints; convert as a float64 array store does,
        # so a propensity held in a local sums like the stored one.
        rendered = f"float({rendered})"
    return _RenderedReaction(r, preamble, rendered, used, tree, integral)


def _scalar_reaction(spec: ReactionKernelSpec, r: int, counter: _FunctionBody) -> _RenderedReaction:
    folded = _fold_constants(spec.expr, spec.constants)
    used = tuple((sid, idx) for sid, idx in spec.species_args if sid in set(folded.symbols()))
    names = {sid: f"_s{idx}" for sid, idx in used}
    return _render_law(r, folded, names, used, counter)


# ---------------------------------------------------------------------------
# Single-species factors
# ---------------------------------------------------------------------------


def _map_children(expr: Expr, fn) -> Expr:
    """``expr`` with ``fn(child)`` in place of each of its children."""
    if isinstance(expr, Neg):
        return Neg(fn(expr.operand))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(fn(a) for a in expr.args))
    return expr


def _map_factors(expr: Expr, replace) -> Expr:
    """``expr`` with ``replace(subtree)`` in place of each maximal non-atomic
    subtree that reads exactly one symbol."""
    if isinstance(expr, _ATOM_TYPES):
        return expr
    if len(expr.symbols()) == 1:
        return replace(expr)
    return _map_children(expr, lambda child: _map_factors(child, replace))


@dataclass
class _Factor:
    """A single-species subtree held in a local: the statements (re)computing
    it and the state column it reads."""

    column: int
    lines: List[str]


def _factor_laws(
    rendered: Sequence[_RenderedReaction],
    counter: _FunctionBody,
) -> Tuple[List[_Factor], List[_RenderedReaction]]:
    """Split every law into single-species factors held in shared locals.

    Each maximal non-atomic subtree of a folded law that reads one species
    becomes one local, shared by every law containing a subtree of exactly
    the same structure and literal bits (its ``to_python`` text, whose
    literals are ``repr``s); the law then reads the local where it held the
    subtree.  Every law still performs the same operations on the same
    operands, so each value is bit-identical to the unfactored law's.  A
    factor that holds another law's factor inside it (``4.0 * hill_rep(X)``
    around ``hill_rep(X)``) reads that factor's local in the same way, so
    each subtree is evaluated once per update.  Returns the factors, each
    after the factors it reads, and the factored laws.
    """
    names = {sid: f"_s{idx}" for law in rendered for sid, idx in law.used_species}
    columns = {sid: idx for law in rendered for sid, idx in law.used_species}
    found = set()
    for law in rendered:
        _map_factors(law.tree, lambda subtree: found.add(subtree.to_python(names)))
    factors: List[_Factor] = []
    refs: Dict[str, str] = {}

    def nested(node: Expr) -> Expr:
        if isinstance(node, _ATOM_TYPES):
            return node
        if node.to_python(names) in found:
            return share(node)
        return _map_children(node, nested)

    def share(subtree: Expr) -> Expr:
        key = subtree.to_python(names)
        if key not in refs:
            inner = _map_children(subtree, nested)
            # A space keeps the reference apart from every species id.
            refs[key] = ref = f"factor {len(factors)}"
            names[ref] = local = f"_f{len(factors)}"
            preamble, expression = _render_counted(inner, names, counter)
            (sid,) = subtree.symbols()
            factors.append(_Factor(columns[sid], [*preamble, f"{local} = {expression}"]))
        return Sym(refs[key])

    laws = []
    for law in rendered:
        tree = _map_factors(law.tree, share)
        laws.append(_render_law(law.index, tree, names, law.used_species, counter, law.integral))
    return factors, laws


def _emit_function(
    lines: List[str],
    signature: str,
    reactions: Sequence[_RenderedReaction],
) -> None:
    """Emit ``def <signature>:`` storing ``reactions`` into ``out`` from ``state``."""
    lines.append(f"def {signature}:")
    hoisted = sorted(
        {(sid, idx) for block in reactions for sid, idx in block.used_species},
        key=lambda item: item[1],
    )
    for _, idx in hoisted:
        # .item() yields a Python float: bit-identical values, ~2x cheaper
        # arithmetic than numpy scalar ops (see module docstring).
        lines.append(f"    _s{idx} = state.item({idx})")
    for block in reactions:
        lines.extend(f"    {line}" for line in block.assign(f"out[{block.index}]"))
    lines.append("    return out")
    lines.append("")


class SumTree:
    """The partial sums of numpy's pairwise ``.sum()`` over ``terms``.

    numpy reduces a contiguous float64 vector by adding its pairwise sum to
    the identity ``+0.0``.  The pairwise sum adds fewer than 8 values
    sequentially onto ``-0.0``; up to 128 go into eight stride-8 accumulators
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then a sequential
    tail; longer blocks split at ``n // 2`` rounded down to a multiple of 8
    and recurse.  Each addition is one node of :attr:`nodes`, a
    ``(name, operands)`` pair meaning ``name = operands[0] + operands[1]``,
    listed after the nodes it reads; the last is the whole pairwise sum,
    :attr:`total`.  ``-0.0 + v`` is ``v`` for every ``v``, so below 8 terms
    the first node copies the first term and the nodes ``_c0, _c1, ...`` are
    exactly ``np.cumsum``'s running sums.  ``+0.0 +`` the total is
    ``float(values.sum())`` bit for bit, and the fused loop's waiting times
    and overshoot fall-through depend on that.
    """

    def __init__(self, terms: Sequence[str]) -> None:
        self.nodes: List[Tuple[str, Tuple[str, ...]]] = []

        def node(*operands: str) -> str:
            name = f"_c{len(self.nodes)}"
            self.nodes.append((name, operands))
            return name

        def sequential(start: str, tail: Sequence[str]) -> str:
            for term in tail:
                start = node(start, term)
            return start

        def pairwise(block: Sequence[str]) -> str:
            n = len(block)
            if n < 8:
                return sequential(node(block[0]), block[1:])
            if n <= 128:
                full = n - n % 8
                acc = list(block[:8])
                for i in range(8, full, 8):
                    acc = [node(acc[j], block[i + j]) for j in range(8)]
                low = node(node(acc[0], acc[1]), node(acc[2], acc[3]))
                high = node(node(acc[4], acc[5]), node(acc[6], acc[7]))
                return sequential(node(low, high), block[full:])
            half = n // 2
            half -= half % 8
            return node(pairwise(block[:half]), pairwise(block[half:]))

        if terms:
            pairwise(terms)
        #: Operand → index of the one node that reads it.
        self._reader = {
            operand: k for k, (_, operands) in enumerate(self.nodes) for operand in operands
        }

    @property
    def total(self) -> str:
        """The name holding the whole sum (``0.0`` for no terms)."""
        return self.nodes[-1][0] if self.nodes else "0.0"

    def statements(self, changed: Optional[Iterable[str]] = None) -> List[str]:
        """Statements recomputing, in order, every node that reads one of
        the ``changed`` terms, directly or through another node (all nodes
        when ``changed`` is None)."""
        if changed is None:
            dirty: Iterable[int] = range(len(self.nodes))
        else:
            dirty = set()
            for operand in changed:
                k = self._reader.get(operand)
                while k is not None and k not in dirty:
                    dirty.add(k)
                    k = self._reader.get(self.nodes[k][0])
            dirty = sorted(dirty)
        return [f"{self.nodes[k][0]} = {' + '.join(self.nodes[k][1])}" for k in dirty]


def _recomputed_laws(
    specs: Sequence[ReactionKernelSpec],
    laws: Sequence[_RenderedReaction],
    dependents: Sequence[Sequence[int]],
) -> List[List[int]]:
    """For each reaction, the laws in ``dependents`` that read a species it
    changes: those its firing branch recomputes."""
    recomputed = []
    for r, spec in enumerate(specs):
        changed = {idx for idx, _ in spec.changes}
        recomputed.append(
            [j for j in dependents[r] if any(idx in changed for _, idx in laws[j].used_species)]
        )
    return recomputed


def _selection(
    specs: Sequence[ReactionKernelSpec],
    factors: Sequence[_Factor],
    laws: Sequence[_RenderedReaction],
    recomputed: Optional[Sequence[Sequence[int]]],
    sum_updates: Optional[Sequence[Sequence[str]]],
) -> List[str]:
    """The reaction-selection chain, each branch firing its reaction.

    The chain picks the first reaction whose cumulative propensity in
    ``np.cumsum`` order exceeds ``_threshold``; the last reaction is the
    unconditional fall-through (the numpy loop's overshoot clamp).  Below 8
    reactions the partial sums ``_cK`` are those cumulative sums, so a
    branch compares one; longer chains keep a running sum ``_c``.  Chains
    are at most :data:`_SELECT_BLOCK` branches long: a miss sets ``_b`` to
    the next block, whose chain continues the same running sum.  A branch
    applies its reaction's state deltas, then recomputes the factors of the
    species it changed, the laws ``recomputed`` lists for it and the
    partial sums ``sum_updates`` lists for it (all of them, at the loop top,
    where either is None).  A law that reads none of the species keeps its
    value, the reaction's own law included.
    """
    last = len(specs) - 1
    by_column: Dict[int, List[_Factor]] = {}
    for factor in factors:
        by_column.setdefault(factor.column, []).append(factor)

    def fire(r: int) -> List[str]:
        statements = [f"_s{idx} += {_literal(delta)}" for idx, delta in specs[r].changes]
        if recomputed is not None:
            for idx in sorted({idx for idx, _ in specs[r].changes}):
                for factor in by_column.get(idx, ()):
                    statements.extend(factor.lines)
            for j in recomputed[r]:
                statements.extend(laws[j].assign(f"_p{j}"))
        if sum_updates is not None:
            statements += sum_updates[r]
        return statements or ["pass"]

    def exceeds(r: int) -> str:
        if len(specs) < 8:
            return f"_c{r} > _threshold"  # the SumTree node np.cumsum's sum r equals
        running = f"_p{r}" if r == 0 else f"_c + _p{r}"
        return f"(_c := {running}) > _threshold"

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
            lines.append(f"{pad}{keyword} {exceeds(r)}:")
            lines.extend(f"{pad}    {line}" for line in fire(r))
        if chain:
            lines.append(f"{pad}else:")
            pad += "    "
        tail = fire(last) if last in block else [f"_b = {k + 1}"]
        lines.extend(pad + line for line in tail)
    return lines


def _record_rows(row: str) -> List[str]:
    """Statements appending ``row`` for every sample time before ``t``."""
    return [
        "while _next < t:",
        f"    _rows += {row}",
        "    _cursor += 1",
        "    _next = _times[_cursor]",
    ]


def _emit_ssa_segment(
    lines: List[str],
    specs: Sequence[ReactionKernelSpec],
    rendered: Sequence[_RenderedReaction],
    dependents: Sequence[Sequence[int]],
    n_species: int,
    incremental: bool,
    counter: _FunctionBody,
) -> None:
    """Emit ``ssa_segment``: the direct-method loop to the end of one segment.

    The statement-for-statement counterpart of the numpy loop in
    :mod:`repro.stochastic.ssa` (see the module docstring for the
    bit-identity argument).  Where that loop calls ``recorder.fill_before``
    after every event, this one appends the row to ``recorder.rows`` itself
    when ``t`` passes the next sample time, and stores the row cursor back
    on exit.  Propensities are held in locals built from single-species
    factors (:func:`_factor_laws`), and their sum in the partial sums of a
    :class:`SumTree`.  ``words`` must read a PCG64 generator (see
    :func:`~repro.stochastic.ziggurat.block_draws_verified`).
    """
    species = [f"_s{i}" for i in range(n_species)]
    row = f"({', '.join(species)},)" if species else "()"
    factors, laws = _factor_laws(rendered, counter)
    compute_all = [line for factor in factors for line in factor.lines]
    compute_all += [line for law in laws for line in law.assign(f"_p{law.index}")]
    sums = SumTree([f"_p{r}" for r in range(len(specs))])
    total = sums.total
    recomputed = _recomputed_laws(specs, laws, dependents) if incremental else None
    sum_updates = None
    if recomputed is not None:
        sum_updates = [sums.statements(f"_p{j}" for j in js) for js in recomputed]
        if sum(map(len, sum_updates)) > _AFTER_STATEMENT_CAP:
            sum_updates = None
    # Whatever the branches do not keep current is recomputed per event.
    at_entry: List[str] = []
    at_top: List[str] = []
    (at_top if recomputed is None else at_entry).extend(compute_all)
    (at_top if sum_updates is None else at_entry).extend(sums.statements())
    # Each block holds the draws the rest of the segment is expected to take:
    # two words per event at the current total.
    block = ziggurat.block_for(f"2.0 * (t_stop - t) * {total}")

    # Samples before the entry time take the entry state.  An event then
    # tests `t` against `_limit`, the sooner of the next sample time and the
    # segment end, before testing either.
    prologue = [*_record_rows(row), "_limit = _next if _next < t_stop else t_stop", *at_entry]
    loop = [
        *at_top,
        f"if {total} <= 0.0:",
        "    break",
        *ziggurat.draw_exponential("_tau", f"(1.0 / {total})", block),
        "t += _tau",
        "if t >= _limit:",
        "    if t >= t_stop:",
        "        break",
        *(f"    {line}" for line in _record_rows(row)),
        "    _limit = _next if _next < t_stop else t_stop",
        *ziggurat.draw_uniform("_threshold", total, block),
        *_selection(specs, factors, laws, recomputed, sum_updates),
    ]

    body = ["if t >= t_stop:", "    return events"]
    if species:
        body.append(f"{', '.join(species)}, = state.tolist()")
    body += [
        "_times = recorder.times",
        "_rows = recorder.rows",
        "_cursor = recorder.cursor",
        "_next = _times[_cursor]",
        *ziggurat.WORDS_LOAD,
        "try:",
        *(f"    {line}" for line in prologue),
        # `events` counts the events fired; the one that would pass
        # max_events ends the range and raises (after one event when
        # max_events is negative, as in the numpy loop).
        "    for events in range(events, max(events, max_events) + 1):",
        *(f"        {line}" for line in loop),
        "    else:",
        "        _exceeded(max_events)",
        "finally:",
        "    recorder.cursor = _cursor",
        *(f"    {line}" for line in ziggurat.WORDS_STORE),
    ]
    if species:
        body.append(f"state[:] = {row}")
    body.append("return events")

    lines.append("def ssa_segment(state, t, t_stop, words, recorder, events, max_events):")
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
        "def _clamp(v, r):",
        "    if v != v:",
        "        raise PropensityError('propensity of reaction %r is NaN' % (_REACTION_IDS[r],))",
        "    return 0.0",
        "",
        "",
        "def _exceeded(max_events):",
        "    raise SimulationError(",
        "        'simulation exceeded %s reaction events before t_end' % (max_events,)",
        "    )",
        "",
        "",
    ]

    total_after_statements = sum(len(dependents[r]) for r in range(n_reactions))
    incremental = total_after_statements <= _AFTER_STATEMENT_CAP
    lines.append(f"{_PART_MARK}ssa_segment")
    _emit_ssa_segment(lines, specs, rendered, dependents, n_species, incremental, counter)
    lines += ["", f"{_PART_MARK}propensities_all"]
    _emit_function(lines, "propensities_all(state, out)", rendered)
    lines += ["", f"{_PART_MARK}propensities_after"]
    if incremental:
        for r in range(n_reactions):
            _emit_function(lines, f"_after_{r}(state, out)", [rendered[j] for j in dependents[r]])
        lines += [
            f"_AFTER = ({', '.join(f'_after_{r}' for r in range(n_reactions))},)",
            "",
            "",
            "def propensities_after(r, state, out):",
            "    _AFTER[r](state, out)",
            "    return out",
            "",
        ]
    else:
        # Dense dependency graph: per-reaction update functions would exceed
        # the module size cap, so recompute everything (untouched reactions
        # recompute to the same values).
        _emit_function(lines, "propensities_after(r, state, out)", rendered)
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


#: The parts of a generated module that compile the first time a simulator
#: reads them (loading compiles only the preamble and ``ssa_segment``).
ON_DEMAND_PARTS = ("propensities_all", "propensities_after")


class PropensityKernel:
    """The loaded kernels of one generated module.

    Loading runs the module's preamble and ``ssa_segment``.  Each of
    :data:`ON_DEMAND_PARTS` compiles from ``source`` into the same namespace
    the first time it is read, so a direct-method run never pays for them.
    Two threads reading a part for the first time at once both compile it;
    the second rebinds equivalent functions, which is harmless.
    """

    __slots__ = (
        "source",
        "n_reactions",
        "n_species",
        "dependents",
        "ssa_segment",
        *ON_DEMAND_PARTS,
        "_namespace",
    )

    def __getattr__(self, name):
        # Reached only for an unset slot: an on-demand part not read yet.
        if name not in ON_DEMAND_PARTS:
            raise AttributeError(name)
        exec(compile_part(self.source, name), self._namespace)  # noqa: S102 - generated code
        function = self._namespace[name]
        setattr(self, name, function)
        return function

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PropensityKernel(reactions={self.n_reactions}, species={self.n_species})"


def compile_part(source: str, name: str):
    """Byte-compile part ``name`` of a generated module (``""``: the preamble).

    A part runs from its ``# part: NAME`` line to the next part; the preamble
    is everything before the first.  Newline padding keeps the part's line
    numbers those of ``source``.
    """
    start = 0
    if name:
        start = source.find(f"\n{_PART_MARK}{name}\n") + 1
        if not start:
            raise PropensityError(
                f"propensity kernel source has no {name!r} part; regenerate it from the model",
            )
    end = source.find(f"\n{_PART_MARK}", start)
    text = "\n" * source.count("\n", 0, start) + source[start : end if end >= 0 else None]
    try:
        return compile(text, "<repro-propensity-kernel>", "exec")
    except SyntaxError as error:
        raise PropensityError(f"invalid propensity kernel source: {error}") from error


def load_kernel(source: str) -> PropensityKernel:
    """Compile and ``exec`` a generated kernel module's preamble and ``ssa_segment``.

    The :data:`ON_DEMAND_PARTS` are left out; they compile from ``source``
    the first time a simulator reads them.  The format stamp is checked
    before ``ssa_segment`` is compiled, so a stale source fails on it.
    """
    namespace = kernel_namespace()
    exec(compile_part(source, ""), namespace)  # noqa: S102 - code generated from a validated AST
    if namespace.get("KERNEL_FORMAT") != KERNEL_FORMAT:
        raise PropensityError(
            "propensity kernel source has an incompatible format "
            f"(expected {KERNEL_FORMAT}, got {namespace.get('KERNEL_FORMAT')!r}); "
            "regenerate it from the model",
        )
    exec(compile_part(source, "ssa_segment"), namespace)  # noqa: S102
    kernel = PropensityKernel()
    kernel.source = source
    kernel.n_reactions = int(namespace["N_REACTIONS"])
    kernel.n_species = int(namespace["N_SPECIES"])
    kernel.dependents = [list(deps) for deps in namespace["DEPENDENTS"]]
    kernel.ssa_segment = namespace["ssa_segment"]
    kernel._namespace = namespace
    return kernel
