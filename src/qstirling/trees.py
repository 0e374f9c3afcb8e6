"""Ordered rooted labeled trees attached to a multiset.

For a multiplicity vector (k_1, ..., k_n) the family consists of the
plane trees whose root is labeled 0 and whose remaining labels are the
multiset {1^k_1, ..., n^k_n}, subject to one structural rule: every
vertex at odd depth labeled i carries exactly k_i - 1 children, all of
them labeled i. Vertices at even depth (the root included) may carry
any ordered run of subtrees.

Two facts follow from the rule and are relied on throughout: each value
i has exactly one odd-depth vertex, whose children are precisely the
even-depth copies of i; and the tree has K + 1 vertices in total.

A tree is a nested pair (label, children) with children a tuple of
trees, so trees are immutable and hashable. The text form is

    tree := label | label "(" tree ("," tree)* ")"

for example "0(1,2(2))". Labels are decimal naturals without leading
zeros.
"""

from itertools import permutations, product
from typing import NamedTuple, Optional

from .core import _NUMERAL, _TABLE_END, MultisetSpec, _as_spec, _expect, _indexable

_NOT_A_TREE = "not a tree: each node must be a (label, children) pair with iterable children"


class TreeStats(NamedTuple):
    cdes: int
    casc: int
    eleaf: int
    first: int
    last: int


def render_tree(t):
    """The text form of a tree, written from an explicit stack of
    subtrees and the literal ")" and "," that follow them. An int label
    0..1023 is written from the table of core._text, any other label as
    str() writes it, or "%d" before its children."""
    out = []
    stack = [t]
    try:
        while stack:
            x = stack.pop()
            if x.__class__ is str:
                out.append(x)
                continue
            label, children = x
            if label.__class__ is int and 0 <= label < _TABLE_END:
                out.append(_NUMERAL[label])
            elif children:  # past the table, or no int: a bool, a float
                out.append("%d" % label)
            else:
                out.append(str(label))
            if not children:
                continue
            out.append("(")
            stack.append(")")
            for child in children[:0:-1]:
                stack.append(child)
                stack.append(",")
            stack.append(children[0])
    except TypeError:
        raise ValueError(_NOT_A_TREE) from None
    return "".join(out)


def _parse_label(text, pos):
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ValueError("expected a label at position %d in %r" % (start, text))
    digits = text[start:pos]
    if len(digits) > 1 and digits[0] == "0":
        raise ValueError("label with leading zero in %r" % text)
    return int(digits), pos


def parse_tree(text):
    """Parse the textual tree grammar back into nested tuples, holding
    the open subtrees on an explicit stack."""
    text = _expect(text, str, "tree text")
    open_nodes = []  # (label, children so far) of each open subtree
    pos = 0
    while True:
        label, pos = _parse_label(text, pos)
        if text.startswith("(", pos):
            pos += 1
            open_nodes.append((label, []))
            continue
        node = (label, ())
        # close every open subtree whose child list ends here
        while open_nodes and not text.startswith(",", pos):
            if not text.startswith(")", pos):
                raise ValueError("unclosed subtree list in %r" % text)
            pos += 1
            label, children = open_nodes.pop()
            children.append(node)
            node = (label, tuple(children))
        if not open_nodes:
            break
        open_nodes[-1][1].append(node)
        pos += 1  # past the comma
    if pos != len(text):
        raise ValueError("trailing text at position %d in %r" % (pos, text))
    return node


def infer_spec(t):
    """The MultisetSpec of the family `t` belongs to, or ValueError
    naming a defect, in one pass over the tree.

    Every label must be an int (a float, a bool or a str is refused), the
    root's 0 and every other label at least 1; each odd vertex labeled i
    may carry only children labeled i, and it must be the only odd vertex
    labeled i, so that it has count(i) - 1 children; and the labels must
    cover 1..n. A node that is no (label, children) pair with iterable
    children is a ValueError too.
    """
    # one try around the walk, so a well-formed node pays no check of its shape
    try:
        label, children = t
        if label != 0 or label.__class__ is not int:
            raise ValueError("root must be labeled 0")
        kids = {}  # label -> number of children of its odd vertex
        stack = list(children)  # odd vertices still to check
        while stack:
            label, evens = stack.pop()
            if label.__class__ is not int:
                raise ValueError("label %r is not an int" % (label,))
            if label < 1:
                raise ValueError("non-root label %d out of range" % label)
            if label in kids:
                raise ValueError("value %d has more than one odd vertex" % label)
            kids[label] = len(evens)
            for even in evens:
                if even[0] != label or even[0].__class__ is not int:
                    raise ValueError(
                        "odd vertex %d has a child labeled %r" % (label, even[0])
                    )
                stack.extend(even[1])
    except (TypeError, LookupError):
        raise ValueError(_NOT_A_TREE) from None
    n = len(kids)
    if max(kids, default=0) != n:
        missing = next(i for i in range(1, n + 1) if i not in kids)
        raise ValueError("value %d is absent from the tree" % missing)
    return MultisetSpec([kids[i] + 1 for i in range(1, n + 1)])


def tree_violation(t, spec) -> Optional[str]:
    """None if the tree belongs to the family over `spec`, else a reason."""
    spec = _as_spec(spec)
    try:
        found = infer_spec(t)
    except ValueError as e:
        return str(e)
    if found != spec:
        return "tree is over %s, not %s" % (
            found.to_text() or "()",
            spec.to_text() or "()",
        )
    return None


def validate_tree(t, spec) -> bool:
    return tree_violation(t, spec) is None


def tree_stats(t) -> TreeStats:
    """Cyclic descent/ascent totals, even-depth leaf count, and the labels
    of the leftmost and rightmost root subtrees.

    Each vertex contributes the cyclic descents and ascents of the
    sequence (own label, child labels left to right); a childless vertex
    contributes nothing. The bare root has no first or last child and is
    rejected.
    """
    try:
        if not t[1]:
            raise ValueError("statistics are undefined for the bare root")
        cdes = casc = eleaf = 0
        stack = [(t, True)]  # (vertex with children, at even depth)
        while stack:
            (label, children), even = stack.pop()
            prev = label
            for child in children:
                c = child[0]
                if prev > c:
                    cdes += 1
                elif prev < c:
                    casc += 1
                prev = c
                if child[1]:
                    stack.append((child, not even))
                elif not even:  # a leaf at even depth
                    eleaf += 1
            if prev > label:  # the cyclic pair (last child, own label)
                cdes += 1
            elif prev < label:
                casc += 1
        return TreeStats(cdes, casc, eleaf, t[1][0][0], t[1][-1][0])
    except (TypeError, LookupError):
        raise ValueError(_NOT_A_TREE) from None


def _trees(spec):
    """Yield every tree over `spec`, in construction order.

    Construction: each value i contributes one odd vertex with its
    k_i - 1 even children fixed; what varies is which slot (the root or
    some even vertex) each odd vertex hangs from, and the order of odd
    vertices sharing a slot. Every acyclic assignment plus ordering
    yields a distinct member, and all members arise this way. For each
    assignment the subtrees of the odd vertices are built bottom-up, once
    each, and shared by every tree that contains them.
    """
    n = spec.n
    # slot 0 is the root; own_slots[i] are the slots of the k_i - 1 even
    # children of value i
    own_slots = [()]
    slots = 1
    for k in spec.mult:
        own_slots.append(range(slots, slots + k - 1))
        slots += k - 1

    for assign in product(range(slots), repeat=n):
        members = [[] for _ in range(slots)]
        for i, slot in enumerate(assign, 1):
            members[slot].append(i)
        # the odd vertices the root reaches, each after the one above it;
        # the assignment is acyclic exactly when all n are reached
        order = list(members[0])
        for i in order:
            for slot in own_slots[i]:
                order.extend(members[slot])
        if len(order) < n:
            continue
        subtrees = [None] * (n + 1)  # odd vertex -> all its subtrees

        def runs(slot):
            # every ordered run of subtrees the members of the slot form
            for perm in permutations(members[slot]):
                yield from product(*[subtrees[x] for x in perm])

        for i in reversed(order):  # every odd vertex below i is done
            combos = product(*[runs(s) for s in own_slots[i]])
            subtrees[i] = [(i, tuple([(i, kids) for kids in c])) for c in combos]
        for kids in runs(0):
            yield (0, kids)


def enumerate_trees(spec):
    """Iterate over every tree over `spec`, one at a time, in the
    construction order that thm22 checks: slot 0 is the root and the
    even vertices follow, value 1's first; the acyclic assignments of
    odd vertices to slots run in lexicographic order, value 1's slot
    slowest, and within one the odd vertices of a slot take their orders
    as `permutations` lists them, their subtrees as `product` does. So
    (1, 2) gives 0(1,2(2)), 0(2(2),1), 0(2(2(1)))."""
    spec = _as_spec(spec)
    _indexable(spec.K)
    return _trees(spec)
