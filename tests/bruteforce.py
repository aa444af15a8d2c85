"""Independently coded feature-model oracles.

Nothing here reuses the production validation path: the tree is re-indexed
from scratch, the closure is a BFS worklist instead of a fixpoint sweep,
the group rules are one flat pass over an explicit parent map, formulas
are evaluated by a separate recursive walker, and each variation point's
binding is collected by a walk of its own subtree.
"""

from itertools import combinations

from stpsim.features import FeatureKind, FeatureModel, GroupKind, Optionality
from stpsim.features import formula as fm


def index_tree(model: FeatureModel):
    info = {}

    def walk(feature, parent):
        info[feature.name] = {
            "parent": parent,
            "group": feature.group,
            "optionality": feature.optionality,
            "children": [c.name for c in feature.children],
            "mandatory_children": [
                c.name for c in feature.children
                if c.optionality is Optionality.MANDATORY
            ],
        }
        for child in feature.children:
            walk(child, feature.name)

    walk(model.root, None)
    return info


def eval_formula(node, selected):
    if isinstance(node, fm.Var):
        return node.name in selected
    if isinstance(node, fm.Not):
        return not eval_formula(node.operand, selected)
    if isinstance(node, fm.And):
        return eval_formula(node.left, selected) and eval_formula(node.right, selected)
    if isinstance(node, fm.Or):
        return eval_formula(node.left, selected) or eval_formula(node.right, selected)
    if isinstance(node, fm.Implies):
        return eval_formula(node.right, selected) if eval_formula(node.left, selected) else True
    if isinstance(node, fm.Iff):
        return eval_formula(node.left, selected) is eval_formula(node.right, selected)
    raise TypeError(node)


def satisfies_directly(model: FeatureModel, selected: frozenset) -> bool:
    """Group rules checked literally on `selected`, no normalization."""
    info = index_tree(model)
    if model.root.name not in selected:
        return False
    for name in selected:
        parent = info[name]["parent"]
        if parent is not None and parent not in selected:
            return False
    for name, meta in info.items():
        if name not in selected:
            continue
        picked = [c for c in meta["children"] if c in selected]
        if meta["group"] is GroupKind.AND:
            if any(c not in selected for c in meta["mandatory_children"]):
                return False
        elif meta["group"] is GroupKind.ALTERNATIVE:
            if len(picked) != 1:
                return False
        elif meta["group"] is GroupKind.OR:
            if not picked:
                return False
    return all(eval_formula(c.formula, selected) for c in model.constraints)


def close_selection(model: FeatureModel, selected: frozenset) -> frozenset:
    """BFS worklist closure: ancestors up, mandatory and-children down."""
    info = index_tree(model)
    closed = set(selected)
    work = list(selected)
    while work:
        name = work.pop()
        parent = info[name]["parent"]
        if parent is not None and parent not in closed:
            closed.add(parent)
            work.append(parent)
        if info[name]["group"] is GroupKind.AND:
            for child in info[name]["mandatory_children"]:
                if child not in closed:
                    closed.add(child)
                    work.append(child)
    return frozenset(closed)


def valid_with_closure(model: FeatureModel, selected: frozenset) -> bool:
    return satisfies_directly(model, close_selection(model, selected))


def enumerate_by_bruteforce(model: FeatureModel) -> set[frozenset]:
    """All subsets satisfying the direct predicate. These are exactly the
    closure-canonical valid configurations."""
    names = list(model.feature_names())
    found = set()
    for size in range(len(names) + 1):
        for combo in combinations(names, size):
            subset = frozenset(combo)
            if satisfies_directly(model, subset):
                found.add(subset)
    return found


def bindings_by_walk(model: FeatureModel, selected: frozenset) -> dict[str, tuple[str, ...]]:
    """Each selected abstract or/alternative feature, in document order ->
    the selected concrete features anywhere below it, in document order,
    each point collected by a walk of its own subtree."""

    def concrete_below(feature):
        for child in feature.children:
            if child.kind is FeatureKind.CONCRETE and child.name in selected:
                yield child.name
            yield from concrete_below(child)

    def points(feature):
        if feature.name in selected and feature.kind is FeatureKind.ABSTRACT \
                and feature.group in (GroupKind.OR, GroupKind.ALTERNATIVE):
            yield feature.name, tuple(concrete_below(feature))
        for child in feature.children:
            yield from points(child)

    return dict(points(model.root))
