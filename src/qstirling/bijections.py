"""Structure-preserving maps between trees and words.

The centerpiece is the pair phi/phi_inv matching each tree over a
multiset with the quasi-Stirling words over the same multiset, carrying
(cdes, casc, eleaf, first, last) to (des, asc, plat, first, last). On
top of it sit the multiplicity-shifting surgeries psi/psi_inv, their
iterate big_psi that flattens any multiset down to one where only the
value 1 repeats, the induced word maps big_phi/big_phi_inv, and
transport, which carries words between any two multisets sharing the
same number of values and total size while preserving the statistic
triple.

The public functions validate their input once; the kernels behind
them (the underscored helpers) trust it. Each psi map then makes one
call _transport(w, mult, runs), of (src, dst, count) runs of equal psi
steps: psi and psi_inv pass their one step, the others the runs of
_shift_schedule(src, dst), and verify's thm23 and thm11 make the same
calls. Every kernel runs on explicit stacks, without recursion, so tree
depth is bounded by memory only. The word maps go word -> tree of
[label, children] lists -> psi steps -> word in linear passes:
value-indexed lists find the odd vertices of each step, a run of equal
steps walks up the tree once and moves its copies as two list slices
around its one case-1 step, and _phi reads the list tree as it reads a
tuple tree. The tree maps psi, psi_inv and big_psi take the same path
behind phi: tree -> word -> list tree -> psi steps -> word -> tree.

The tail of the module handles words over the flattened multisets
{1^m, 2, ..., n} directly: the block decomposition of maximally
descending words, and zeta, which folds an m-tuple of disjoint value
sequences into a single word.
"""

from itertools import combinations_with_replacement, permutations

from .core import MultisetSpec, _as_spec, _expect, _flat_word, _integers, _numbers
from .core import _indexable, _read_word, is_quasi_stirling, stats, word_to_text
from .trees import infer_spec


def _checked_word(w):
    # the kernels tell labels by class, so they get the ints read here
    w, spec = _read_word(w)
    if not is_quasi_stirling(w):
        raise ValueError("word is not quasi-Stirling")
    return w, spec


# ---------------------------------------------------------------------------
# trees <-> words


def _phi(t):
    # t may be a tuple or a list tree; the stack holds labels still to
    # write and child sequences of even vertices still to expand
    word = []
    stack = [t[1]]
    while stack:
        x = stack.pop()
        if x.__class__ is int:
            word.append(x)
            continue
        for r, evens in reversed(x):
            stack.append(r)
            for even in reversed(evens):
                stack.append(even[1])
                stack.append(r)
    return tuple(word)


def phi(t):
    """Serialize a tree into its quasi-Stirling word.

    The leftmost root subtree, with odd vertex labeled r on top, opens
    the word: an r, then the contents of each even r vertex followed by
    another r, then the word of the tree with that whole subtree
    removed. Statistics transfer: (cdes, casc, eleaf, first, last) of
    the tree equal (des, asc, plat, first, last) of the word.
    """
    infer_spec(t)
    return _phi(t)


def _phi_inv(w, mult):
    # left to right: the first copy of r opens the odd vertex r in the
    # innermost open even vertex, every copy but the last opens an even
    # child of it, and each later copy closes the even child before it
    left = [0, *mult]
    open_kids = [[]]  # child lists of the open even vertices, root first
    evens = {}  # value -> its closed even subtrees, while r is open
    for r in w:
        done = evens.get(r)
        if done is None:
            done = evens[r] = []
        else:
            done.append((r, tuple(open_kids.pop())))
        left[r] -= 1
        if left[r]:
            open_kids.append([])
        else:
            open_kids[-1].append((r, tuple(evens.pop(r))))
    return (0, tuple(open_kids[0]))


def phi_inv(w):
    """Rebuild the unique tree whose word is w.

    The segments of w strictly between consecutive copies of its first
    value are value-disjoint from the remainder, so they become the
    even subtrees, and the suffix after the last copy becomes the later
    root subtrees.
    """
    w, spec = _checked_word(w)
    return _phi_inv(w, spec.mult)


# ---------------------------------------------------------------------------
# multiplicity surgery on a mutable tree
#
# A psi step turns one copy of a value src into the adjacent value dst:
# psi at j is the step (j, j - 1) and psi_inv at j is (j - 1, j), one
# surgery with the two labels exchanged (psi's docstring states it).
#
# The psi steps rewrite a tree of [label, children] lists, the same
# nested shape as the (label, children) tuples, so _phi reads it back
# as it is. Two lists indexed by value come with it: `odd[r]`, the odd
# vertex labeled r, and `up[r]`, the even vertex (or the root) holding
# it. An even vertex labeled r always hangs from odd[r], so only odd
# vertices need a parent link. The psi steps move and relabel even
# vertices only, so neither depth parities nor the holders of odd
# vertices ever change, and both indexes follow the one label swap of
# case 1. A run of count steps walks up once, from up[dst] to its box:
# the even child of odd[src] whose subtree holds odd[dst], else the root.
# A step is case 1 exactly when it moves the box. A case-2 step moves a
# subtree off the path from odd[dst] to the root and keeps the box; after
# case 1 the new odd[src] lies below the new odd[dst], so the rest of the
# run is case 2, and the old box, now under odd[dst], never matches again.
# So a run is a slice of case-2 steps, at most one case-1 step and a
# second slice; a slice moves the last children of odd[src], those after
# the box, to the end of odd[dst]'s, last first and relabeled dst.


def _word_tree(w, mult):
    """phi_inv(w) as a list tree, with its `odd` and `up` indexes."""
    left = [0, *mult]
    root = [0, []]
    odd = [None] * len(left)
    up = [None] * len(left)
    open_evens = [root]
    for r in w:
        o = odd[r]
        if o is None:
            holder = up[r] = open_evens[-1]
            o = odd[r] = [r, []]
            holder[1].append(o)
        else:
            open_evens.pop()
        left[r] -= 1
        if left[r]:
            even = [r, []]
            o[1].append(even)
            open_evens.append(even)
    return root, odd, up


def _case1_attach_order(moved, relabeled):
    # moved subtrees keep their order, relabeled vertex lands rightmost;
    # the inverse direction keys on that rightmost position
    return list(moved) + [relabeled]


def _rotate_to_front_order(ys, pos):
    # the special child moves just ahead of the prefix it used to follow
    return ys[pos + 1 :] + [ys[pos]] + ys[:pos]


def _psi_step(odd, up, src, dst, count=1):
    box = up[dst]
    while box[0] != src and box[0]:  # stop at the root, label 0
        box = up[box[0]]
    while count:
        kids = odd[src][1]
        if kids[-1] is not box:
            # the case-2 steps: the children after the box, at most count
            moved = kids[-count:]
            moved.reverse()
            for v in moved:
                if v is box:
                    while moved.pop() is not box:
                        pass  # the box and the children before it stay
                    break
                v[0] = dst
            odd[dst][1] += moved
            del kids[-len(moved) :]
            count -= len(moved)
            if not count:
                return
        # the case-1 step: the box, now the last child of odd[src], moves
        count -= 1
        osrc = odd[src]
        odst = odd[dst]
        pos = box[1].index(odst) if up[dst] is box else -1
        box[0] = dst
        osrc[0] = dst
        odst[0] = src
        osrc[1], odst[1] = _case1_attach_order(odst[1], box), osrc[1][:-1]
        odd[src], odd[dst] = odst, osrc
        up[src], up[dst] = up[dst], up[src]
        if pos >= 0:
            box[1] = _rotate_to_front_order(box[1], pos)


def _stepped(mult, src, dst):
    # the multiplicities after one psi step turns a copy of src into dst
    return tuple(k - (v == src) + (v == dst) for v, k in enumerate(mult, 1))


def _psi(t, j, up):
    # psi, a copy of j down to j-1, or with up=True psi_inv, one back up
    (j,) = _integers((j,), "j must be an integer")
    spec = infer_spec(t)
    if spec.n < 2:
        raise ValueError("the tree has no value to shift (n = %d < 2)" % spec.n)
    if j < 2 or j > spec.n:
        raise ValueError("j must be between 2 and %d, got %d" % (spec.n, j))
    src, dst = (j - 1, j) if up else (j, j - 1)
    if spec.mult[src - 1] < 2:
        raise ValueError(
            "value %d has multiplicity %d, need at least 2" % (src, spec.mult[src - 1])
        )
    w = _transport(_phi(t), spec.mult, [(src, dst, 1)])
    return _phi_inv(w, _stepped(spec.mult, src, dst))


def psi(t, j):
    """Move one copy of value j down to value j-1, preserving the tree
    statistics (cdes, casc, eleaf).

    The rightmost even vertex labeled j is relabeled j-1 and rehomed.
    When the odd vertex j-1 sits inside that even vertex's subtree the
    two odd vertices trade labels and children as well; otherwise the
    even vertex simply becomes the rightmost child of the odd j-1. The
    result is a valid tree over the multiset with multiplicities
    (..., k_{j-1}+1, k_j-1, ...).
    """
    return _psi(t, j, up=False)


def psi_inv(t, j):
    """Undo psi(..., j): move one copy of value j-1 back up to value j,
    by the surgery of psi with j and j-1 exchanged."""
    return _psi(t, j, up=True)


def _shift_schedule(src, dst):
    """The runs (src, dst, count) of psi steps that carry the words over
    multiplicities src onto those over dst, of the same n and K: flatten
    src, always at the largest repeated value, then undo the flattening
    of dst in reverse. Steps at j only add copies to j-1, so j passes on
    its own extra copies plus all those carried down from above it."""
    down, up = [], []
    carried_down = carried_up = 0
    for j in range(len(src), 1, -1):
        carried_down += src[j - 1] - 1
        carried_up += dst[j - 1] - 1
        if carried_down:
            down.append((j, j - 1, carried_down))
        if carried_up:
            up.append((j - 1, j, carried_up))
    return down + up[::-1]


def _flattened(mult):
    # (K-n+1, 1, ..., 1), without the checks of a new MultisetSpec
    return (sum(mult) - len(mult) + 1,) + (1,) * (len(mult) - 1) if mult else ()


def flattened_spec(spec):
    """The multiset with the same n and K in which only value 1 repeats."""
    return MultisetSpec(_flattened(_as_spec(spec).mult))


def big_psi(t):
    """Iterate psi until only the value 1 has multiplicity above 1."""
    spec = infer_spec(t)
    flat = _flattened(spec.mult)
    w = _transport(_phi(t), spec.mult, _shift_schedule(spec.mult, flat))
    return _phi_inv(w, flat)


def _transport(w, mult, runs):
    # w is quasi-Stirling over mult; each run (src, dst, count) turns
    # count copies of src into the adjacent value dst, one psi step each
    if not runs:
        return w
    root, odd, up = _word_tree(w, mult)
    for src, dst, count in runs:
        _psi_step(odd, up, src, dst, count)
    return _phi(root)


def big_phi(w):
    """Map a quasi-Stirling word onto the flattened multiset with the
    same n and K, preserving (asc, des, plat)."""
    w, spec = _checked_word(w)
    return _transport(w, spec.mult, _shift_schedule(spec.mult, _flattened(spec.mult)))


def big_phi_inv(w, target):
    """Inverse of big_phi, aimed at the given target multiset.

    The input word must live over the flattened form of the target; the
    steps that flatten the target are undone in reverse.
    """
    target = _as_spec(target)
    w, spec = _checked_word(w)
    flat = _flattened(target.mult)
    if spec.mult != flat:
        raise ValueError(
            "word multiset %s is not the flattened form %s of the target"
            % (spec.to_text() or "()", word_to_text(flat) or "()")
        )
    return _transport(w, spec.mult, _shift_schedule(spec.mult, target.mult))


def transport(w, target):
    """Carry a quasi-Stirling word to the target multiset (same n, same
    K) through the flattened multiset, preserving (asc, des, plat)."""
    target = _as_spec(target)
    w, spec = _checked_word(w)
    if (spec.n, spec.K) != (target.n, target.K):
        raise ValueError(
            "source has n=%d, K=%d but target has n=%d, K=%d"
            % (spec.n, spec.K, target.n, target.K)
        )
    return _transport(w, spec.mult, _shift_schedule(spec.mult, target.mult))


# ---------------------------------------------------------------------------
# words over {1^m, 2, ..., n}


def _split_at_ones(w):
    """The stretches of w before, between and after its copies of 1."""
    parts = []
    prev = -1
    for pos, v in enumerate(w):
        if v == 1:
            parts.append(w[prev + 1 : pos])
            prev = pos
    parts.append(w[prev + 1 :])
    return parts


def max_descent_decompose(w):
    """Split a word with the maximum descent count at its copies of 1.

    A word over {1^m, 2, ..., n} has at most n descents; those attaining
    n are exactly the concatenations b_1 1 b_2 1 ... b_m 1 whose blocks
    b_i are strictly decreasing (possibly empty) and jointly cover the
    values 2..n. Returns the m blocks.
    """
    w, m, n = _flat_word(w)
    des = stats(w).des
    if des != n:
        raise ValueError("word has %d descents, the maximum %d is required" % (des, n))
    # a 1 tops a descent only as the last letter and each v > 1 at most
    # one, so des = n forces the form b_1 1 ... b_m 1, blocks decreasing
    return tuple(_split_at_ones(w)[:-1])  # the last stretch is empty


# ---------------------------------------------------------------------------
# tuples of disjoint sequences


def check_perm_tuple(parts, anchored=False):
    """Return the parts as tuples of ints, or raise ValueError unless they
    are disjoint sequences of distinct values jointly covering 1..n; with
    anchored=True, value 1 must additionally sit in the first part."""
    message = "parts must be sequences of integers"
    try:
        parts = tuple(_integers(p, message) for p in parts)
    except TypeError:  # parts is no sequence
        raise ValueError(message) from None
    seen = sorted(v for part in parts for v in part)
    if seen != list(range(1, len(seen) + 1)):
        raise ValueError("parts must cover 1..n exactly once, got values %s" % seen)
    if anchored:
        if not parts or 1 not in parts[0]:
            raise ValueError("value 1 must lie in the first part")
    return parts


def perm_tuple_from_text(text):
    """Parse '3,1||2' into ((3, 1), (), (2,))."""
    chunks = _expect(text, str, "tuple text").split("|")
    return tuple(_numbers(chunk, "tuple text", text) for chunk in chunks)


def perm_tuple_to_text(parts):
    try:
        return "|".join(map(word_to_text, parts))
    except (TypeError, ValueError):  # parts, or a part, is no integer sequence
        raise ValueError("parts must be sequences of integers") from None


def enumerate_perm_tuples(m, n, anchored=False):
    """All ways to distribute 1..n over m ordered slots, each slot an
    ordered sequence. With anchored=True, keep only tuples whose first
    slot contains the value 1."""
    m, n = _integers((m, n), "m and n must be integers")
    if m < 1:
        raise ValueError("need at least one slot")
    if n < 0:
        raise ValueError("need n >= 0 values, got %d" % n)
    _indexable(m + n - 1)  # the letters of the word zeta folds a tuple into
    return _perm_tuples(m, n, anchored)


def _perm_tuples(m, n, anchored):
    # m - 1 nondecreasing cut points in 0..n split a permutation into the
    # slots; in lex order they list the slot sizes in lex order
    cuts = [
        tuple(map(slice, (0,) + inner, inner + (n,)))
        for inner in combinations_with_replacement(range(n + 1), m - 1)
    ]
    for perm in permutations(range(1, n + 1)):
        for slices in cuts:
            parts = tuple([perm[s] for s in slices])
            if anchored and 1 not in parts[0]:
                continue
            yield parts


def zeta(a):
    """Fold an m-tuple of disjoint sequences covering 1..n, with value 1
    in the first part, into a word over {1^m, 2, ..., n}.

    Writing the first part as sigma 1 tau, the word is sigma, a 1, then
    each later part followed by a 1, then tau. Plateaus of the word
    count the empty parts; ascents and descents are the sums of those
    of the nonempty parts.
    """
    parts = check_perm_tuple(a, anchored=True)
    first = parts[0]
    cut = first.index(1)
    out = list(first[:cut])
    out.append(1)
    for part in parts[1:]:
        out.extend(part)
        out.append(1)
    out.extend(first[cut + 1 :])
    return tuple(out)


def zeta_inv(w):
    """Unfold a word over {1^m, 2, ..., n} back into its m-tuple: the
    text before the first 1 and after the last 1 rejoin around a 1 as
    the first part, the stretches between consecutive 1s become the
    remaining parts in order."""
    w, _, _ = _flat_word(w)
    head, *middle, tail = _split_at_ones(w)
    return (head + (1,) + tail, *middle)
