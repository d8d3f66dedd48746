"""Nominal-column bodies == the label-comparing reference, on generated data.

Hypothesis draws a small relation (0 to 14 rows) with three nominal columns
that hold NULLs, a real label no declared level names, and the empty string
(the engine's placeholder under a NULL), plus two REAL columns with NULLs.
The declared levels are drawn per example: they name labels no row holds
and leave out labels rows do hold.  Every input is read twice, once as a
plain-mapping :class:`Relation` and once bound from an engine table
(:meth:`Relation.of`), and each body's payload must serialize byte for byte
as the reference's.

The references are the bodies as they read before nominal columns reached
UDFs as codes: they compare labels per level, one Python object per row.
``route_tree`` is compared as the leaf each row lands in, by id.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.anova import anova_twoway_local
from repro.algorithms.cart import cart_split_stats_local
from repro.algorithms.descriptive import descriptive_local, descriptive_pooled_local
from repro.algorithms.histograms import histogram_counts_local
from repro.algorithms.id3 import id3_stats_local
from repro.algorithms.moments import group_moments_local
from repro.algorithms.naive_bayes import naive_bayes_fit_local
from repro.engine.table import Schema, Table
from repro.engine.types import SQLType
from repro.udfgen import udf_helpers as _h
from repro.udfgen.runtime import Relation, serialize_transfer

from tests.conftest import EXAMPLE_SCALE

#: Labels a row may hold, per nominal column; None is NULL.
HELD = {
    "dataset": ["d1", "d2", "d3"],
    "y": ["a", "b", "c", None],
    "g": ["u", "v", "w", "", None],
    "h": ["p", "q", None],
}
#: Labels a declared level list may name: the held ones and one never held.
NAMEABLE = {name: [v for v in values if v is not None] + ["never"] for name, values in HELD.items()}
NOMINAL = ["y", "g", "h"]
REALS = [-1.0, 0.0, 0.5, 1.0, 2.5, None]
SCHEMA = Schema([
    ("dataset", SQLType.VARCHAR), ("y", SQLType.VARCHAR), ("g", SQLType.VARCHAR),
    ("h", SQLType.VARCHAR), ("x", SQLType.REAL), ("r", SQLType.REAL),
])

EXAMPLES = settings(max_examples=25 * EXAMPLE_SCALE, deadline=None)

# ------------------------------------------------------------------ strategies


@st.composite
def cases(draw):
    """(rows, declared levels per nominal column)."""
    n_rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 14)))
    rows = [
        tuple(draw(st.sampled_from(HELD[name])) for name in ("dataset", "y", "g", "h"))
        + (draw(st.sampled_from(REALS)), draw(st.sampled_from(REALS)))
        for _ in range(n_rows)
    ]
    levels = {
        name: draw(st.lists(st.sampled_from(NAMEABLE[name]), min_size=1, unique=True))
        for name in NOMINAL
    }
    return rows, levels


def relations(rows):
    """The same rows as a plain mapping and as an engine-bound relation."""
    columns = list(zip(*rows)) if rows else [()] * len(SCHEMA)
    plain = {}
    for spec, values in zip(SCHEMA, columns):
        if spec.sql_type == SQLType.VARCHAR:
            plain[spec.name] = np.array(values, dtype=object)
        else:
            plain[spec.name] = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
    return [Relation(plain), Relation.of(Table.from_rows(SCHEMA, rows))]


def metadata_of(levels):
    return {name: {"is_categorical": True, "enumerations": list(levels[name])} for name in NOMINAL}


@st.composite
def trees(draw, levels, multiway_only=False):
    """A decision tree in the federated JSON form, at most three splits deep.

    Multiway splits name a drawn subset of the declared levels (one may be
    held by no row) and a default child; binary splits test a nominal label
    (possibly undeclared) or ``x`` against a threshold (NULLs go right)."""
    nodes = {}

    def grow(depth):
        node_id = len(nodes)
        nodes[str(node_id)] = {"type": "leaf"}
        if depth == 3 or draw(st.booleans()):
            return node_id
        kind = "multiway" if multiway_only else draw(st.sampled_from(["multiway", "level", "threshold"]))
        if kind == "multiway":
            feature = draw(st.sampled_from(["g", "h"]))
            named = draw(st.lists(st.sampled_from(levels[feature]), min_size=1, unique=True))
            children = {level: grow(depth + 1) for level in named}
            default = draw(st.sampled_from(sorted(children.values())))
            split = {"feature": feature, "children": children, "default_child": default}
        elif kind == "level":
            feature = draw(st.sampled_from(["g", "h"]))
            split = {"feature": feature, "level": draw(st.sampled_from(NAMEABLE[feature])),
                     "left": grow(depth + 1), "right": grow(depth + 1)}
        else:
            split = {"feature": "x", "threshold": draw(st.sampled_from([-0.5, 0.5, 1.0])),
                     "left": grow(depth + 1), "right": grow(depth + 1)}
        nodes[str(node_id)] = {"type": "split", **split}
        return node_id

    grow(0)
    return {"root": 0, "nodes": nodes}


def open_leaves(draw, tree):
    leaves = [int(k) for k, node in tree["nodes"].items() if node["type"] == "leaf"]
    return draw(st.lists(st.sampled_from(leaves), min_size=1, unique=True))


def same(new, old):
    assert serialize_transfer({"v": new}) == serialize_transfer({"v": old})


# ------------------------------------------------------------------ references


def ref_category_counts(values, levels):
    values = np.asarray(values)
    return np.array([int((values == level).sum()) for level in levels], dtype=np.int64)


def ref_route_tree(relation, tree):
    nodes = tree["nodes"]
    assignment = np.full(len(relation), str(tree["root"]), dtype=object)
    changed = True
    while changed:
        changed = False
        for node_id in list(np.unique(assignment)):
            node = nodes[str(node_id)]
            if node["type"] != "split":
                continue
            mask = assignment == node_id
            values = relation[node["feature"]]
            if "children" in node:
                for level, child in node["children"].items():
                    assignment[mask & (values == level)] = str(child)
                still = assignment == node_id
                if still.any():
                    assignment[still] = str(node["default_child"])
            elif "threshold" in node:
                numeric = np.asarray(values, dtype=np.float64)
                go_left = mask & (numeric <= node["threshold"])
                assignment[go_left] = str(node["left"])
                assignment[mask & ~go_left] = str(node["right"])
            else:
                go_left = mask & (values == node["level"])
                assignment[go_left] = str(node["left"])
                assignment[mask & ~go_left] = str(node["right"])
            changed = True
    return assignment


def ref_id3_stats(data, target, classes, features, feature_levels, tree, open_leaves):
    assignment = ref_route_tree(data, tree)
    labels = data[target]
    payload = {}
    for leaf in open_leaves:
        leaf_mask = assignment == str(leaf)
        totals = ref_category_counts(labels[leaf_mask], classes)
        payload[f"leaf{leaf}_total"] = {"data": totals.tolist(), "operation": "sum"}
        for feature_index, feature in enumerate(features):
            values = data[feature][leaf_mask]
            labels_leaf = labels[leaf_mask]
            for level_index, level in enumerate(feature_levels[feature_index]):
                counts = ref_category_counts(labels_leaf[values == level], classes)
                payload[f"leaf{leaf}_f{feature_index}_l{level_index}"] = {
                    "data": counts.tolist(), "operation": "sum",
                }
    return payload


def ref_cart_split_stats(data, target, classes, tree, candidates, open_leaves):
    assignment = ref_route_tree(data, tree)
    target_values = data[target]
    payload = {}
    for leaf in open_leaves:
        leaf_mask = assignment == str(leaf)
        if classes:
            totals = ref_category_counts(target_values[leaf_mask], classes)
            payload[f"leaf{leaf}_total"] = {"data": totals.tolist(), "operation": "sum"}
        else:
            y_leaf = np.asarray(target_values[leaf_mask], dtype=np.float64)
            payload[f"leaf{leaf}_total"] = {
                "data": [float(len(y_leaf)), float(y_leaf.sum()), float((y_leaf**2).sum())],
                "operation": "sum",
            }
        for cand_index, candidate in enumerate(candidates):
            values = data[candidate["feature"]][leaf_mask]
            if "threshold" in candidate:
                left_mask = np.asarray(values, dtype=np.float64) <= candidate["threshold"]
            else:
                left_mask = values == candidate["level"]
            key = f"leaf{leaf}_cand{cand_index}"
            if classes:
                y_leaf = target_values[leaf_mask]
                left_counts = ref_category_counts(y_leaf[left_mask], classes)
                payload[f"{key}_left"] = {"data": left_counts.tolist(), "operation": "sum"}
            else:
                y_leaf = np.asarray(target_values[leaf_mask], dtype=np.float64)
                y_left = y_leaf[left_mask]
                payload[f"{key}_left"] = {
                    "data": [float(len(y_left)), float(y_left.sum()), float((y_left**2).sum())],
                    "operation": "sum",
                }
    return payload


def ref_nominal_entry(values, levels, suppression_threshold):
    non_null = np.array([v for v in values if v is not None], dtype=object)
    entry = {
        "kind": "nominal",
        "count": int(len(values)),
        "datapoints": int(len(non_null)),
        "na": int(len(values) - len(non_null)),
    }
    if len(non_null) >= suppression_threshold:
        entry["levels"] = {level: int((non_null == level).sum()) for level in levels}
    else:
        entry["suppressed"] = True
    return entry


def ref_descriptive_local(data, variables, metadata, suppression_threshold):
    datasets = data["dataset"]
    result = {}
    for code in sorted(set(datasets.tolist())):
        mask = datasets == code
        result[code] = {
            variable: ref_nominal_entry(
                data[variable][mask], metadata[variable]["enumerations"], suppression_threshold
            )
            for variable in variables
        }
    return result


def ref_descriptive_pooled(data, variables, metadata):
    payload = {}
    for variable in variables:
        values = data[variable]
        non_null = np.array([v for v in values if v is not None], dtype=object)
        counts = ref_category_counts(non_null, metadata[variable]["enumerations"])
        payload[f"{variable}__levels"] = {"data": counts.tolist(), "operation": "sum"}
        payload[f"{variable}__count"] = {"data": int(len(values)), "operation": "sum"}
        payload[f"{variable}__na"] = {"data": int(len(values) - len(non_null)), "operation": "sum"}
    return payload


def ref_group_moments(data, response, group_variable, levels):
    values = np.asarray(data[response], dtype=np.float64)
    groups = data[group_variable]
    payload = {}
    for index, level in enumerate(levels):
        selected = values[groups == level]
        payload[f"n_{index}"] = {"data": int(len(selected)), "operation": "sum"}
        payload[f"sum_{index}"] = {"data": float(selected.sum()), "operation": "sum"}
        payload[f"sumsq_{index}"] = {"data": float((selected**2).sum()), "operation": "sum"}
    return payload


def ref_class_feature_sums(relation, features, metadata, class_masks):
    payload = {}
    for class_index, mask in enumerate(class_masks):
        payload[f"n_{class_index}"] = {"data": int(mask.sum()), "operation": "sum"}
        for feature_index, feature in enumerate(features):
            info = metadata.get(feature, {})
            values = relation[feature][mask]
            key = f"f{feature_index}_c{class_index}"
            if info.get("is_categorical"):
                counts = ref_category_counts(values, list(info.get("enumerations", [])))
                payload[f"{key}_counts"] = {"data": counts.tolist(), "operation": "sum"}
            else:
                numeric = np.asarray(values, dtype=np.float64)
                payload[f"{key}_sum"] = {"data": float(numeric.sum()), "operation": "sum"}
                payload[f"{key}_sumsq"] = {"data": float((numeric**2).sum()), "operation": "sum"}
    return payload


def ref_histogram_counts(data, variable, levels, group_variable, group_levels):
    if group_variable is None:
        group_masks = [np.ones(len(data), dtype=bool)]
    else:
        group_masks = [data[group_variable] == g for g in group_levels]
    return {
        f"counts_{index}": {
            "data": ref_category_counts(data[variable][mask], levels).tolist(), "operation": "sum",
        }
        for index, mask in enumerate(group_masks)
    }


def ref_dummies(values, levels):
    return [(values == level).astype(np.float64) for level in levels[1:]]


# ------------------------------------------------------------------ the suite


@EXAMPLES
@given(cases())
def test_category_counts(case):
    rows, levels = case
    for relation in relations(rows):
        for name in NOMINAL:
            same(_h.category_counts(relation.codes(name, levels[name]), len(levels[name])),
                 ref_category_counts(relation[name], levels[name]))


@EXAMPLES
@given(st.data())
def test_route_tree_puts_each_row_in_the_same_leaf(data):
    rows, levels = data.draw(cases())
    tree = data.draw(trees(levels))
    for relation in relations(rows):
        leaves = [str(leaf) for leaf in _h.route_tree(relation, tree).tolist()]
        assert leaves == ref_route_tree(relation, tree).tolist()


@EXAMPLES
@given(st.data())
def test_id3_stats(data):
    rows, levels = data.draw(cases())
    tree = data.draw(trees(levels, multiway_only=True))
    leaves = open_leaves(data.draw, tree)
    args = ("y", levels["y"], ["g", "h"], [levels["g"], levels["h"]], tree, leaves)
    for relation in relations(rows):
        same(id3_stats_local(relation, *args), ref_id3_stats(relation, *args))


@EXAMPLES
@given(st.data())
def test_cart_split_stats(data):
    rows, levels = data.draw(cases())
    tree = data.draw(trees(levels))
    leaves = open_leaves(data.draw, tree)
    candidates = [{"feature": "x", "threshold": t} for t in (-0.5, 0.5, 2.0)] + [
        {"feature": feature, "level": level}
        for feature in ("g", "h")
        for level in data.draw(st.lists(st.sampled_from(NAMEABLE[feature]), unique=True))
    ]
    metadata = metadata_of(levels)
    for relation in relations(rows):
        for target, classes in (("y", levels["y"]), ("r", [])):
            new = cart_split_stats_local(relation, target, classes, ["x", "g", "h"], metadata,
                                         tree, candidates, leaves)
            same(new, ref_cart_split_stats(relation, target, classes, tree, candidates, leaves))


@EXAMPLES
@given(cases(), st.integers(0, 4))
def test_descriptive_nominal_entries(case, suppression_threshold):
    rows, levels = case
    metadata = metadata_of(levels)
    for relation in relations(rows):
        same(descriptive_local(relation, NOMINAL, metadata, suppression_threshold),
             ref_descriptive_local(relation, NOMINAL, metadata, suppression_threshold))
        same(descriptive_pooled_local(relation, NOMINAL, metadata, 4),
             ref_descriptive_pooled(relation, NOMINAL, metadata))


@EXAMPLES
@given(cases())
def test_group_moments(case):
    rows, levels = case
    for relation in relations(rows):
        for group in NOMINAL:
            same(group_moments_local(relation, "r", group, levels[group]),
                 ref_group_moments(relation, "r", group, levels[group]))


@EXAMPLES
@given(cases(), st.lists(st.booleans(), min_size=14, max_size=14))
def test_class_feature_sums(case, drawn_mask):
    rows, levels = case
    metadata = metadata_of(levels)
    features = ["g", "x", "h", "r"]
    for relation in relations(rows):
        masks = [np.array(drawn_mask[: len(rows)], dtype=bool), np.ones(len(rows), dtype=bool)]
        same(_h.class_feature_sums(relation, features, metadata, masks),
             ref_class_feature_sums(relation, features, metadata, masks))
        class_masks = [relation["y"] == level for level in levels["y"]]
        same(naive_bayes_fit_local(relation, "y", levels["y"], features, metadata),
             ref_class_feature_sums(relation, features, metadata, class_masks))


@EXAMPLES
@given(cases())
def test_histogram_level_counts(case):
    rows, levels = case
    for relation in relations(rows):
        for group, group_levels in ((None, ["all"]), ("h", levels["h"])):
            same(histogram_counts_local(relation, "g", [], levels["g"], group, group_levels),
                 ref_histogram_counts(relation, "g", levels["g"], group, group_levels))


@EXAMPLES
@given(cases())
def test_design_matrix_dummies_and_response(case):
    rows, levels = case
    metadata = metadata_of(levels)
    for relation in relations(rows):
        design, names = _h.build_design_matrix(relation, ["g", "x", "h"], metadata)
        expected = np.column_stack(
            [np.ones(len(rows))]
            + ref_dummies(relation["g"], levels["g"])
            + [np.asarray(relation["x"], dtype=np.float64)]
            + ref_dummies(relation["h"], levels["h"])
        )
        assert design.tobytes() == expected.tobytes() and design.shape == expected.shape
        assert names[0] == "intercept" and len(names) == design.shape[1]
        for positive in NAMEABLE["y"]:
            same(_h.response_vector(relation, "y", positive),
                 (relation["y"] == positive).astype(np.float64))


@EXAMPLES
@given(cases())
def test_anova_twoway_dummies(case):
    rows, levels = case
    for relation in relations(rows):
        a, b = ref_dummies(relation["g"], levels["g"]), ref_dummies(relation["h"], levels["h"])
        columns = [np.ones(len(rows))] + a + b + [da * db for da in a for db in b]
        y = np.asarray(relation["r"], dtype=np.float64)
        same(anova_twoway_local(relation, "r", "g", "h", levels["g"], levels["h"]),
             _h.regression_payload(np.column_stack(columns), y))
