"""Translate one call of a ``@udf`` function into SQL statements.

The generated artifact is a :class:`UDFApplication`:

- one ``CREATE OR REPLACE FUNCTION ... LANGUAGE PYTHON { ... }`` whose body
  embeds the user function's source plus the serialization glue,
- ``CREATE TABLE`` statements for every output,
- the driving ``INSERT INTO <main output> SELECT * FROM <function>(plan)``.

Relational, state, and transfer inputs are read *inside the UDF body* via
SQL loopback queries; secondary outputs are written back via loopback
INSERTs — exactly the mechanism the paper attributes to the UDFGenerator.

Generation is *plan-cached*, prepared-statement style: the emitted function
body depends only on the UDF's shape — its spec, input/output kinds, and
statefulness — never on the concrete argument values or table names.  Those
travel at call time as a single literal parameter (the *application plan*),
so iterative flows (k-means, logistic regression) generate each function's
SQL exactly once and every later iteration reuses the cached plan: the
per-iteration statements shrink to the output ``CREATE TABLE``s plus the
driving ``INSERT``, and the node skips re-parsing and re-registering the
function entirely (see :func:`run_udf_application`).
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
    MergeTransferType,
    RelationType,
    SecureTransferType,
    StateType,
    TensorType,
    TransferType,
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
    """The SQL artifact of one UDF call, ready to execute on a node."""

    function_name: str
    definition_sql: str
    create_output_sql: tuple[str, ...]
    execute_sql: str
    output_tables: tuple[str, ...]
    output_kinds: tuple[IOType, ...]
    #: True when the function body depends only on the plan key, so a node
    #: that already holds ``function_name`` may skip the definition.
    reusable_definition: bool = False

    @property
    def statements(self) -> list[str]:
        return [self.definition_sql, *self.create_output_sql, self.execute_sql]


@dataclass(frozen=True)
class _CachedPlan:
    """A memoized function definition for one (spec, shape) key."""

    function_name: str
    definition_sql: str


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


def _iotype_sig(iotype: IOType) -> tuple:
    """A hashable, structure-complete signature of an I/O kind."""
    if isinstance(iotype, RelationType):
        return ("relation", iotype.schema)
    if isinstance(iotype, TensorType):
        return ("tensor", iotype.ndims, iotype.dtype)
    return (iotype.kind,)


def _plan_key(spec: UDFSpec, stateful: bool) -> tuple:
    return (
        spec.name,
        spec.source,
        tuple((pname, _iotype_sig(iotype)) for pname, iotype in spec.inputs),
        tuple(_iotype_sig(iotype) for iotype in spec.outputs),
        stateful,
    )


def generate_udf_application(
    spec: UDFSpec,
    job_id: str,
    arguments: Mapping[str, Any],
    output_prefix: str | None = None,
    stateful: bool = True,
    use_cache: bool = True,
) -> UDFApplication:
    """Emit the SQL for one application of ``spec`` with bound arguments.

    ``arguments`` maps parameter names to:

    - a table name / SELECT string (``relation``, ``tensor``, ``state``,
      ``transfer`` inputs),
    - a list of table names (``merge_transfer``),
    - any JSON-representable Python value (``literal``).

    ``stateful`` enables session-cache reuse of state objects (the paper's
    roadmap item "stateful Python UDF execution"): a state produced by one
    step is handed to the next without a pickle round trip.  Disable for
    the E9 ablation.

    ``use_cache`` toggles the plan cache; generation is deterministic, so a
    cached and an uncached application of the same call are byte-identical.
    """
    missing = [name for name in spec.input_names if name not in arguments]
    if missing:
        raise UDFError(f"UDF {spec.name!r}: missing arguments {missing}")
    unknown = [name for name in arguments if name not in spec.input_names]
    if unknown:
        raise UDFError(f"UDF {spec.name!r}: unknown arguments {unknown}")
    if not spec.source:
        raise UDFError(f"UDF {spec.name!r}: source is unavailable; cannot generate SQL")

    with tracer.span("udf.generate", udf=spec.name) as span:
        key = _plan_key(spec, stateful)
        plan = plan_cache.lookup(key) if use_cache else None
        if plan is None:
            span.set_attribute("plan_cache", "miss" if use_cache else "bypass")
            plan = _build_plan(spec, key, stateful)
            if use_cache:
                plan_cache.store(key, plan)
        else:
            span.set_attribute("plan_cache", "hit")

    prefix = output_prefix or _sanitize(f"{spec.name}_{job_id}_out")
    output_tables = tuple(f"{prefix}_{i}" for i in range(len(spec.outputs)))
    create_output_sql = []
    for table_name, iotype in zip(output_tables, spec.outputs):
        schema = output_schema(iotype)
        columns = ", ".join(f"{name} {sql_type.value}" for name, sql_type in schema)
        create_output_sql.append(f"CREATE TABLE {table_name} ({columns})")
    plan_literal = _plan_literal(spec, arguments, output_tables)
    execute_sql = (
        f"INSERT INTO {output_tables[0]} "
        f"SELECT * FROM {plan.function_name}('{plan_literal}')"
    )
    return UDFApplication(
        function_name=plan.function_name,
        definition_sql=plan.definition_sql,
        create_output_sql=tuple(create_output_sql),
        execute_sql=execute_sql,
        output_tables=output_tables,
        output_kinds=spec.outputs,
        reusable_definition=True,
    )


def _build_plan(spec: UDFSpec, key: tuple, stateful: bool) -> _CachedPlan:
    """Generate the parameterized function definition for one plan key."""
    digest = hashlib.sha1(repr(key).encode()).hexdigest()[:12]
    function_name = _sanitize(f"{spec.name}_p{digest}")
    body = _generate_plan_body(spec, stateful)
    main_schema = output_schema(spec.outputs[0])
    returns = ", ".join(f"{name} {sql_type.value}" for name, sql_type in main_schema)
    definition_sql = (
        f"CREATE OR REPLACE FUNCTION {function_name}(__plan_repr VARCHAR) "
        f"RETURNS TABLE({returns}) LANGUAGE PYTHON {{\n{body}\n}}"
    )
    return _CachedPlan(function_name, definition_sql)


def _plan_literal(
    spec: UDFSpec, arguments: Mapping[str, Any], output_tables: Sequence[str]
) -> str:
    """The SQL-quoted application plan: argument values + output tables.

    The plan travels as one string literal and is ``eval``-ed inside the UDF
    body (in the same namespace the old value-baking scheme used, plus the
    ``nan`` / ``inf`` names a non-finite float's ``repr`` needs), so every
    Python value the baked approach supported round-trips unchanged.
    """
    plan: dict[str, Any] = {}
    for pname, iotype in spec.inputs:
        value = arguments[pname]
        if isinstance(iotype, LiteralType):
            plan[pname] = value
        elif isinstance(iotype, StateType):
            raw = str(value)
            plan[pname] = (raw, TableArg.of(raw).query)
        elif isinstance(iotype, MergeTransferType):
            if not isinstance(value, (list, tuple)):
                raise UDFError(f"merge_transfer argument {pname!r} must be a list of tables")
            plan[pname] = tuple(TableArg.of(str(v)).query for v in value)
        else:
            plan[pname] = TableArg.of(str(value)).query
    plan["__out__"] = tuple(output_tables)
    return repr(plan).replace("'", "''")


def run_udf_application(database: Database, application: UDFApplication) -> tuple[str, ...]:
    """Execute a generated application on a node's database.

    Plan-cached applications carry a function name derived from their plan
    key, so if the node's catalog already holds that function the (large)
    definition statement is skipped: after the first iteration of an
    iterative flow, a step costs two tiny DDL statements plus the INSERT.
    """
    with tracer.span("udf.execute", function=application.function_name) as span:
        statements = application.statements
        if application.reusable_definition and database.has_function(application.function_name):
            statements = statements[1:]
            span.set_attribute("definition_skipped", True)
        for sql in statements:
            database.execute(sql)
    return application.output_tables


# ----------------------------------------------------------- body generation


def _generate_plan_body(spec: UDFSpec, stateful: bool) -> str:
    """The parameterized function body: reads every value from ``__plan``.

    No argument value or table name is baked in — the body is a pure
    function of the plan key, which is what makes it cacheable and lets a
    node keep one definition across all iterations and jobs.
    """
    lines: list[str] = [
        "import numpy as np",
        "from repro.udfgen import runtime as _rt",
        "from repro.udfgen import udf_helpers as _h  # noqa: F401 (used by UDF bodies)",
        "__plan = eval(__plan_repr, None, _rt.NON_FINITE)",
        "__out_tables = __plan['__out__']",
        "",
    ]
    lines.extend(spec.source.splitlines())
    lines.append("")
    call_args: list[str] = []
    for pname, iotype in spec.inputs:
        lines.extend(_plan_bind_input(pname, iotype, stateful=stateful))
        call_args.append(f"{pname}=__arg_{pname}")
    lines.append(f"__result = {spec.func.__name__}({', '.join(call_args)})")
    if len(spec.outputs) == 1:
        lines.append("__outputs = (__result,)")
    else:
        lines.append("__outputs = __result if isinstance(__result, tuple) else (__result,)")
    lines.append(f"if len(__outputs) != {len(spec.outputs)}:")
    lines.append(
        f"    raise ValueError('UDF {spec.func.__name__} returned %d outputs, "
        f"declared {len(spec.outputs)}' % len(__outputs))"
    )
    # Secondary outputs through loopback INSERTs.
    for index, iotype in enumerate(spec.outputs):
        if index == 0:
            continue
        lines.extend(_plan_emit_secondary(index, iotype))
        if stateful and isinstance(iotype, StateType):
            lines.append(f"_cache[__out_tables[{index}]] = __outputs[{index}]")
    if stateful and isinstance(spec.outputs[0], StateType):
        lines.append("_cache[__out_tables[0]] = __outputs[0]")
    lines.extend(_emit_main(spec.outputs[0]))
    return "\n".join(lines)


def _plan_bind_input(pname: str, iotype: IOType, stateful: bool) -> list[str]:
    target = f"__arg_{pname}"
    local = f"__t_{pname}"
    source = f"__plan[{pname!r}]"
    if isinstance(iotype, LiteralType):
        return [f"{target} = {source}"]
    if isinstance(iotype, RelationType):
        return [f"{target} = _rt.Relation.of(_conn.execute_table({source}))"]
    if isinstance(iotype, TensorType):
        return [
            f"{local} = _conn.execute({source})",
            f"{target} = _rt.columns_to_tensor({local})",
        ]
    if isinstance(iotype, StateType):
        # The plan carries (raw table name, query); the session cache is
        # keyed by the raw name, exactly like the old value-baking scheme.
        if stateful:
            return [
                f"{target} = _cache.get({source}[0])",
                f"if {target} is None:",
                f"    {local} = _conn.execute({source}[1])",
                f"    {target} = _rt.deserialize_state({local}['state'][0])",
            ]
        return [
            f"{local} = _conn.execute({source}[1])",
            f"{target} = _rt.deserialize_state({local}['state'][0])",
        ]
    if isinstance(iotype, TransferType):
        return [
            f"{local} = _conn.execute({source})",
            f"{target} = _rt.deserialize_transfer({local}['transfer'][0])",
        ]
    if isinstance(iotype, MergeTransferType):
        return [
            f"{target} = []",
            f"for __mq_{pname} in {source}:",
            f"    __m_{pname} = _conn.execute(__mq_{pname})",
            f"    {target}.append(_rt.deserialize_transfer(__m_{pname}['transfer'][0]))",
        ]
    raise UDFError(f"unsupported input kind {type(iotype).__name__}")


def _plan_emit_secondary(index: int, iotype: IOType) -> list[str]:
    table = f"__out_tables[{index}]"
    if isinstance(iotype, StateType):
        return [
            f"__blob_{index} = _rt.serialize_state(__outputs[{index}])",
            f"_conn.execute('INSERT INTO ' + {table} + ' VALUES (' "
            f"+ _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, TransferType):
        return [
            f"__blob_{index} = _rt.serialize_transfer(__outputs[{index}])",
            f"_conn.execute('INSERT INTO ' + {table} + ' VALUES (' "
            f"+ _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, SecureTransferType):
        return [
            f"__sec_{index} = _rt.validate_secure_transfer(__outputs[{index}])",
            f"__blob_{index} = _rt.serialize_transfer(__sec_{index})",
            f"_conn.execute('INSERT INTO ' + {table} + ' VALUES (' "
            f"+ _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, TensorType):
        return [
            f"__cols_{index} = _rt.tensor_to_columns(np.asarray(__outputs[{index}]))",
            f"__n_{index} = len(__cols_{index}['val'])",
            f"for __i in range(__n_{index}):",
            f"    __vals = ', '.join(_rt.sql_quote(__cols_{index}[k][__i]) "
            f"for k in __cols_{index})",
            f"    _conn.execute('INSERT INTO ' + {table} + ' VALUES (' + __vals + ')')",
        ]
    if isinstance(iotype, RelationType):
        names = [name for name, _ in (iotype.schema or ())]
        return [
            f"__rel_{index} = __outputs[{index}]",
            f"for __i in range(len(__rel_{index}[{names[0]!r}])):",
            f"    __vals = ', '.join(_rt.sql_quote(__rel_{index}[k][__i]) for k in {names!r})",
            f"    _conn.execute('INSERT INTO ' + {table} + ' VALUES (' + __vals + ')')",
        ]
    raise UDFError(f"unsupported output kind {type(iotype).__name__}")


def _bind_input(
    pname: str, iotype: IOType, value: Any, prefix: str = "", stateful: bool = True
) -> list[str]:
    target = f"__arg_{prefix}{pname}"
    local = f"__t_{prefix}{pname}"
    if isinstance(iotype, LiteralType):
        return [f"{target} = {value!r}"]
    if isinstance(iotype, RelationType):
        query = TableArg.of(str(value)).query
        return [f"{target} = _rt.Relation.of(_conn.execute_table({query!r}))"]
    if isinstance(iotype, TensorType):
        query = TableArg.of(str(value)).query
        return [
            f"{local} = _conn.execute({query!r})",
            f"{target} = _rt.columns_to_tensor({local})",
        ]
    if isinstance(iotype, StateType):
        query = TableArg.of(str(value)).query
        lines = []
        if stateful:
            # Stateful execution: reuse the live object when this session
            # produced the state; fall back to deserialization otherwise.
            lines.append(f"{target} = _cache.get({str(value)!r})")
            lines.append(f"if {target} is None:")
            lines.append(f"    {local} = _conn.execute({query!r})")
            lines.append(f"    {target} = _rt.deserialize_state({local}['state'][0])")
            return lines
        return [
            f"{local} = _conn.execute({query!r})",
            f"{target} = _rt.deserialize_state({local}['state'][0])",
        ]
    if isinstance(iotype, TransferType):
        query = TableArg.of(str(value)).query
        return [
            f"{local} = _conn.execute({query!r})",
            f"{target} = _rt.deserialize_transfer({local}['transfer'][0])",
        ]
    if isinstance(iotype, MergeTransferType):
        if not isinstance(value, (list, tuple)):
            raise UDFError(f"merge_transfer argument {pname!r} must be a list of tables")
        queries = [TableArg.of(str(v)).query for v in value]
        lines = [f"{target} = []"]
        for query in queries:
            lines.append(f"__m = _conn.execute({query!r})")
            lines.append(f"{target}.append(_rt.deserialize_transfer(__m['transfer'][0]))")
        return lines
    raise UDFError(f"unsupported input kind {type(iotype).__name__}")


def _emit_secondary(index: int, iotype: IOType, table: str) -> list[str]:
    if isinstance(iotype, StateType):
        return [
            f"__blob_{index} = _rt.serialize_state(__outputs[{index}])",
            f"_conn.execute('INSERT INTO {table} VALUES (' + _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, TransferType):
        return [
            f"__blob_{index} = _rt.serialize_transfer(__outputs[{index}])",
            f"_conn.execute('INSERT INTO {table} VALUES (' + _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, SecureTransferType):
        return [
            f"__sec_{index} = _rt.validate_secure_transfer(__outputs[{index}])",
            f"__blob_{index} = _rt.serialize_transfer(__sec_{index})",
            f"_conn.execute('INSERT INTO {table} VALUES (' + _rt.sql_quote(__blob_{index}) + ')')",
        ]
    if isinstance(iotype, TensorType):
        return [
            f"__cols_{index} = _rt.tensor_to_columns(np.asarray(__outputs[{index}]))",
            f"__n_{index} = len(__cols_{index}['val'])",
            f"for __i in range(__n_{index}):",
            f"    __vals = ', '.join(_rt.sql_quote(__cols_{index}[k][__i]) "
            f"for k in __cols_{index})",
            f"    _conn.execute('INSERT INTO {table} VALUES (' + __vals + ')')",
        ]
    if isinstance(iotype, RelationType):
        names = [name for name, _ in (iotype.schema or ())]
        return [
            f"__rel_{index} = __outputs[{index}]",
            f"for __i in range(len(__rel_{index}[{names[0]!r}])):",
            f"    __vals = ', '.join(_rt.sql_quote(__rel_{index}[k][__i]) for k in {names!r})",
            f"    _conn.execute('INSERT INTO {table} VALUES (' + __vals + ')')",
        ]
    raise UDFError(f"unsupported output kind {type(iotype).__name__}")


def _emit_main(iotype: IOType) -> list[str]:
    if isinstance(iotype, StateType):
        return [
            "return {'state': np.array([_rt.serialize_state(__outputs[0])], dtype=object)}"
        ]
    if isinstance(iotype, TransferType):
        return [
            "return {'transfer': np.array([_rt.serialize_transfer(__outputs[0])], dtype=object)}"
        ]
    if isinstance(iotype, SecureTransferType):
        return [
            "__sec_main = _rt.validate_secure_transfer(__outputs[0])",
            "return {'secure_transfer': "
            "np.array([_rt.serialize_transfer(__sec_main)], dtype=object)}",
        ]
    if isinstance(iotype, TensorType):
        return ["return _rt.tensor_to_columns(np.asarray(__outputs[0]))"]
    if isinstance(iotype, RelationType):
        names = [name for name, _ in (iotype.schema or ())]
        return [f"return {{k: np.asarray(__outputs[0][k]) for k in {names!r}}}"]
    raise UDFError(f"unsupported output kind {type(iotype).__name__}")


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


# ------------------------------------------------------------------- fusion


@dataclass(frozen=True)
class StepOutput:
    """Placeholder argument: output ``output_index`` of fused step ``step_index``.

    Inside a fused application the referenced value is passed as a live
    Python object — no serialization, no intermediate table.
    """

    step_index: int
    output_index: int = 0


@dataclass(frozen=True)
class FusionStep:
    """One step of a fused pipeline: a UDF spec plus its bound arguments."""

    spec: UDFSpec
    arguments: Mapping[str, Any]


def generate_fused_application(
    steps: Sequence[FusionStep],
    job_id: str,
    output_prefix: str | None = None,
) -> UDFApplication:
    """Fuse a chain of local steps into a single SQL UDF application.

    The paper's roadmap cites "UDF fusion": consecutive computation steps
    whose intermediate results never feed SQL can execute as one UDF,
    eliminating intermediate tables and the (de)serialization between steps.
    Only the *final* step's outputs are materialized; earlier outputs exist
    solely as Python objects inside the fused body.

    Later steps reference earlier results with :class:`StepOutput`
    placeholders; all other argument kinds behave as in
    :func:`generate_udf_application`.
    """
    if not steps:
        raise UDFError("cannot fuse zero steps")
    for index, step in enumerate(steps):
        if not step.spec.source:
            raise UDFError(f"fused step {index}: source is unavailable")
        missing = [n for n in step.spec.input_names if n not in step.arguments]
        if missing:
            raise UDFError(f"fused step {index} ({step.spec.name}): missing {missing}")
    final = steps[-1].spec
    function_name = _sanitize(f"{final.name}_fused{len(steps)}_{job_id}")
    prefix = output_prefix or f"{function_name}_out"
    output_tables = tuple(f"{prefix}_{i}" for i in range(len(final.outputs)))

    lines: list[str] = [
        "import numpy as np",
        "from repro.udfgen import runtime as _rt",
        "from repro.udfgen import udf_helpers as _h  # noqa: F401 (used by UDF bodies)",
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
            value = step.arguments[pname]
            target = f"__arg_s{index}_{pname}"
            if isinstance(value, StepOutput):
                if value.step_index >= index:
                    raise UDFError(
                        f"fused step {index}: StepOutput must reference an earlier step"
                    )
                lines.append(
                    f"{target} = __outputs_{value.step_index}[{value.output_index}]"
                )
            else:
                lines.extend(_bind_input(pname, iotype, value, prefix=f"s{index}_"))
            call_args.append(f"{pname}={target}")
        lines.append(
            f"__result_{index} = {step.spec.func.__name__}({', '.join(call_args)})"
        )
        if len(step.spec.outputs) == 1:
            lines.append(f"__outputs_{index} = (__result_{index},)")
        else:
            lines.append(
                f"__outputs_{index} = __result_{index} "
                f"if isinstance(__result_{index}, tuple) else (__result_{index},)"
            )
    lines.append(f"__outputs = __outputs_{len(steps) - 1}")
    lines.append(f"if len(__outputs) != {len(final.outputs)}:")
    lines.append(
        f"    raise ValueError('fused pipeline returned %d outputs, declared "
        f"{len(final.outputs)}' % len(__outputs))"
    )
    for index, (iotype, table) in enumerate(zip(final.outputs, output_tables)):
        if index == 0:
            continue
        lines.extend(_emit_secondary(index, iotype, table))
    lines.extend(_emit_main(final.outputs[0]))
    body = "\n".join(lines)

    main_schema = output_schema(final.outputs[0])
    returns = ", ".join(f"{name} {sql_type.value}" for name, sql_type in main_schema)
    definition_sql = (
        f"CREATE OR REPLACE FUNCTION {function_name}() "
        f"RETURNS TABLE({returns}) LANGUAGE PYTHON {{\n{body}\n}}"
    )
    create_output_sql = []
    for table_name, iotype in zip(output_tables, final.outputs):
        schema = output_schema(iotype)
        columns = ", ".join(f"{name} {sql_type.value}" for name, sql_type in schema)
        create_output_sql.append(f"CREATE TABLE {table_name} ({columns})")
    execute_sql = f"INSERT INTO {output_tables[0]} SELECT * FROM {function_name}()"
    return UDFApplication(
        function_name=function_name,
        definition_sql=definition_sql,
        create_output_sql=tuple(create_output_sql),
        execute_sql=execute_sql,
        output_tables=output_tables,
        output_kinds=final.outputs,
    )
