"""Translate one call of a ``@udf`` function into SQL statements.

The generated artifact is a :class:`UDFApplication`:

- one ``CREATE OR REPLACE FUNCTION ... LANGUAGE PYTHON { ... }`` whose body
  embeds the user function's source plus the serialization glue,
- the statement that runs it, ``SELECT * FROM <function>(?)``,
- the *application plan*: per step, each literal's value and the query each
  relation or transfer is read through, bound to the ``?`` when the
  statement executes.

Relation and transfer inputs are read *inside the UDF body* via SQL loopback
queries — the mechanism the paper attributes to the UDFGenerator — and the
body returns its one output as the function's result table, which the node
registers as the step's output table.

Generation is *plan-cached*, prepared-statement style: the function body and
the statement text depend only on the UDF's shape — its spec and its
input/output kinds — never on the concrete argument values or table names.
Those travel as the plan, a Python value bound as the statement's one
parameter: never quoted into SQL, never re-parsed.  So iterative flows
(k-means, logistic regression) generate each function's SQL exactly once,
a node registers each function once (see :func:`run_udf_application`), and
the engine parses each statement text once and binds every later step's
plan to that parse.  The body starts from a private structural copy of its
plan (:func:`repro.udfgen.runtime.private_copy`), so a body that mutates a
literal changes neither the request that carried it nor another node's
step.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.engine.database import Database
from repro.errors import UDFError
from repro.observability.trace import tracer
from repro.udfgen.decorators import UDFSpec
from repro.udfgen.iotypes import (
    IOType,
    LiteralType,
    RelationType,
    SecureTransferType,
    output_schema,
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


@dataclass(frozen=True)
class TableArg:
    """A relational argument: a table name or a full SELECT query."""

    query: str

    @classmethod
    def of(cls, name_or_query: str) -> "TableArg":
        text = name_or_query.strip()
        if _IDENTIFIER_RE.match(text):
            return cls(f"SELECT * FROM {text}")
        return cls(text)


@dataclass(frozen=True)
class UDFApplication:
    """The SQL artifact of one UDF call, ready to execute on a node:
    ``execute_sql`` runs with ``plan`` bound to its one ``?``."""

    function_name: str
    definition_sql: str
    execute_sql: str
    plan: tuple[dict[str, Any], ...]
    output_tables: tuple[str, ...]
    output_kinds: tuple[IOType, ...]


@dataclass(frozen=True)
class _CachedPlan:
    """A memoized function definition, and the statement that runs it, for
    one (spec, shape) key."""

    function_name: str
    definition_sql: str
    execute_sql: str


class UDFPlanCache:
    """LRU memo of generated function definitions, keyed by plan shape.

    The hit/miss counters are the observable contract of the optimisation:
    after the first iteration of an iterative flow, every further local or
    global step of the same shape must be a hit (asserted in tests).
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._plans: OrderedDict[Any, _CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Any) -> _CachedPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, key: Any, plan: _CachedPlan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}


#: Process-wide plan cache (one generator, many nodes — the definition is
#: per-shape, so every node can reuse the same plan).
plan_cache = UDFPlanCache()


@dataclass(frozen=True)
class StepOutput:
    """Placeholder argument: the output of fused step ``step_index``.

    Inside a fused application the referenced value is passed as a live
    Python object — no serialization, no intermediate table.
    """

    step_index: int


@dataclass(frozen=True)
class FusionStep:
    """One step of a fused pipeline: a UDF spec plus its bound arguments."""

    spec: UDFSpec
    arguments: Mapping[str, Any]


def generate_udf_application(
    spec: UDFSpec, job_id: str, arguments: Mapping[str, Any]
) -> UDFApplication:
    """Emit the SQL for one application of ``spec`` with bound arguments.

    ``arguments`` maps parameter names to a table name or SELECT string
    (``relation`` and ``transfer`` inputs) or to a ``literal``'s value:
    scalars and the built-in containers of them (the values whose ``repr``
    evaluates back to them; anything else fails the step with
    :class:`UDFError`).
    """
    return _generate((FusionStep(spec, arguments),), job_id, fused=False)


def generate_fused_application(steps: Sequence[FusionStep], job_id: str) -> UDFApplication:
    """Fuse a chain of local steps into a single SQL UDF application.

    The paper's roadmap cites "UDF fusion": consecutive computation steps
    whose intermediate results never feed SQL can execute as one UDF,
    eliminating intermediate tables and the (de)serialization between steps.
    Only the *final* step's output is materialized; earlier outputs exist
    solely as Python objects inside the fused body.

    Later steps reference earlier results with :class:`StepOutput`
    placeholders; all other arguments bind as in
    :func:`generate_udf_application`.
    """
    if not steps:
        raise UDFError("cannot fuse zero steps")
    return _generate(tuple(steps), job_id, fused=True)


def _generate(steps: tuple[FusionStep, ...], job_id: str, fused: bool) -> UDFApplication:
    for index, step in enumerate(steps):
        spec = step.spec
        where = f"fused step {index} ({spec.name})" if fused else f"UDF {spec.name!r}"
        missing = [name for name in spec.input_names if name not in step.arguments]
        if missing:
            raise UDFError(f"{where}: missing arguments {missing}")
        unknown = [name for name in step.arguments if name not in spec.input_names]
        if unknown:
            raise UDFError(f"{where}: unknown arguments {unknown}")
        if not spec.source:
            raise UDFError(f"{where}: source is unavailable; cannot generate SQL")
        for value in step.arguments.values():
            if isinstance(value, StepOutput) and not 0 <= value.step_index < index:
                raise UDFError(f"fused step {index}: StepOutput must reference an earlier step")

    final = steps[-1].spec
    with tracer.span("udf.generate", udf=final.name) as span:
        key = _plan_key(steps)
        plan = plan_cache.lookup(key)
        if plan is None:
            span.set_attribute("plan_cache", "miss")
            plan = _build_plan(steps, key)
            plan_cache.store(key, plan)
        else:
            span.set_attribute("plan_cache", "hit")

    return UDFApplication(
        function_name=plan.function_name,
        definition_sql=plan.definition_sql,
        execute_sql=plan.execute_sql,
        plan=_application_plan(steps),
        output_tables=(_sanitize(f"{final.name}_{job_id}_out_0"),),
        output_kinds=final.outputs,
    )


def _plan_key(steps: Sequence[FusionStep]) -> tuple:
    """The shape a function body depends on: each step's spec and kinds,
    and which arguments are earlier steps' outputs."""
    return tuple(
        (
            step.spec.name,
            step.spec.source,
            tuple(
                (pname, _shape(step.arguments[pname], iotype))
                for pname, iotype in step.spec.inputs
            ),
            step.spec.outputs[0].kind,
        )
        for step in steps
    )


def _shape(value: Any, iotype: IOType) -> Any:
    return ("step", value.step_index) if isinstance(value, StepOutput) else iotype.kind


def _application_plan(steps: Sequence[FusionStep]) -> tuple[dict[str, Any], ...]:
    """The application plan: per step, each literal's value and the query
    each relation or transfer is read through."""
    return tuple(
        {
            pname: _plan_value(step.arguments[pname], iotype)
            for pname, iotype in step.spec.inputs
            if not isinstance(step.arguments[pname], StepOutput)
        }
        for step in steps
    )


def _plan_value(value: Any, iotype: IOType) -> Any:
    if isinstance(iotype, LiteralType):
        return value
    return TableArg.of(str(value)).query


def _build_plan(steps: Sequence[FusionStep], key: tuple) -> _CachedPlan:
    """Generate the parameterized function definition for one plan key, and
    the statement that runs it.

    The plan parameter is declared VARCHAR, the type it would take to cross
    a SQL boundary; the engine binds the plan value itself.
    """
    digest = hashlib.sha1(repr(key).encode()).hexdigest()[:12]
    final = steps[-1].spec
    function_name = _sanitize(f"{final.name}_p{digest}")
    definition_sql = (
        f"CREATE OR REPLACE FUNCTION {function_name}(__plan_arg VARCHAR) "
        f"RETURNS TABLE({_columns(final)}) LANGUAGE PYTHON {{\n{_plan_body(steps)}\n}}"
    )
    return _CachedPlan(function_name, definition_sql, f"SELECT * FROM {function_name}(?)")


def _columns(spec: UDFSpec) -> str:
    """The column list of ``spec``'s output table."""
    return ", ".join(
        f"{name} {sql_type.value}" for name, sql_type in output_schema(spec.outputs[0])
    )


def _plan_body(steps: Sequence[FusionStep]) -> str:
    """The parameterized function body: reads every value from ``__plan``.

    No argument value or table name is baked in — the body is a pure
    function of the plan key, which is what makes it cacheable and lets a
    node keep one definition across all iterations and jobs.
    """
    lines: list[str] = [
        "import numpy as np",
        "from repro.udfgen import runtime as _rt",
        "from repro.udfgen import udf_helpers as _h  # noqa: F401 (used by UDF bodies)",
        "__plan = _rt.private_copy(__plan_arg)",
        "",
    ]
    embedded: set[str] = set()
    for step in steps:
        if step.spec.name not in embedded:
            embedded.add(step.spec.name)
            lines.extend(step.spec.source.splitlines())
            lines.append("")
    for index, step in enumerate(steps):
        call_args: list[str] = []
        for pname, iotype in step.spec.inputs:
            target = f"__arg_s{index}_{pname}"
            value = step.arguments[pname]
            if isinstance(value, StepOutput):
                lines.append(f"{target} = __result_{value.step_index}")
            else:
                lines.append(_bind(target, iotype, f"__plan[{index}][{pname!r}]"))
            call_args.append(f"{pname}={target}")
        lines.append(f"__result_{index} = {step.spec.func.__name__}({', '.join(call_args)})")
    lines.append(_emit(steps[-1].spec.outputs[0], f"__result_{len(steps) - 1}"))
    return "\n".join(lines)


def _bind(target: str, iotype: IOType, source: str) -> str:
    """Bind ``target`` to an input whose plan entry is the expression
    ``source``: a literal's value, or the query a relation or a transfer
    is read through."""
    if isinstance(iotype, LiteralType):
        return f"{target} = {source}"
    if isinstance(iotype, RelationType):
        return f"{target} = _rt.Relation.of(_conn.execute_table({source}))"
    return f"{target} = _rt.deserialize_transfer(_conn.execute({source})['transfer'][0])"


def _emit(iotype: IOType, result: str) -> str:
    """Return the UDF's one output as its single-row result table."""
    if isinstance(iotype, SecureTransferType):
        result = f"_rt.validate_secure_transfer({result})"
    return (
        f"return {{{iotype.kind!r}: "
        f"np.array([_rt.serialize_transfer({result})], dtype=object)}}"
    )


def run_udf_application(database: Database, application: UDFApplication) -> tuple[str, ...]:
    """Execute a generated application on a node's database and register its
    result as the step's output table.

    An application's function name is derived from its plan key, so if the
    node's catalog already holds that function the (large) definition
    statement is skipped: after the first iteration of an iterative flow, a
    step is one execution of the prepared ``SELECT * FROM f(?)``.
    """
    with tracer.span("udf.execute", function=application.function_name) as span:
        if database.has_function(application.function_name):
            span.set_attribute("definition_skipped", True)
        else:
            database.execute(application.definition_sql)
        result = database.execute(application.execute_sql, (application.plan,))
        (output,) = application.output_tables
        database.register_table(output, result)
    return application.output_tables


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)
