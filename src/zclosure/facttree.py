"""Factorization trees in M_d(Q).

A tree's non-leaf labels are left-to-right products of their children, and a
node with three or more children must carry a stable label (rank M = rank M^2;
this is the form the height-bound proof actually uses).  The two bounds:

    rank-level trees  : height <= d+2 for rank-r sequences
    general trees     : height <= d(d+3), built stratum by stratum

Both bounds are asserted loudly at construction time.

The rank-level construction follows the greedy basis over the exterior images
iota(im M_i).  Tiling one segment per greedy index does not work directly
(the stable-segment witness may rewind left of the previous greedy index), so
tiles are built right to left and chained through the witness index: each tile
ends just before a greedy index and starts at its witness, and the next tile
is built for the witness position, so tiles abut exactly.  The final element
needs special treatment (its exterior image is not covered by the greedy
span); splitting it off costs one extra binary level on the last tile, which
the s <= C(d,r) <= 2^(d-1) bound absorbs.
"""
from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .errors import InternalInvariantError, PreconditionError
from .exactlin import Matrix, Subspace, is_stable, rank, rank_decomp
from .exterior import ExtVector, combination, greedy_basis, iota, wedge
from .lang import MorphismPair


class FactTree(NamedTuple):
    label: Matrix
    span: tuple[int, int]  # half-open interval into the input sequence
    children: tuple["FactTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def height(self) -> int:
        return 0 if self.is_leaf else 1 + max(c.height for c in self.children)

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def leaves(self):
        if self.is_leaf:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

    def to_json(self) -> dict:
        return {
            "label": [[str(x) for x in row] for row in self.label.entries],
            "span": list(self.span),
            "children": [c.to_json() for c in self.children],
        }

    def render_text(self, indent: int = 0) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.label.entries
        )
        line = "  " * indent + f"[{self.span[0]}:{self.span[1]}] {body}"
        return "\n".join(
            [line] + [c.render_text(indent + 1) for c in self.children]
        )


def _leaf(m: Matrix, i: int) -> FactTree:
    return FactTree(m, (i, i + 1))


def _node(children: list[FactTree]) -> FactTree:
    if len(children) == 1:
        return children[0]
    for prev, c in zip(children, children[1:]):
        if c.span[0] != prev.span[1]:
            raise InternalInvariantError("non-contiguous children spans")
    label = reduce(mul, (c.label for c in children))
    tree = FactTree(label, (children[0].span[0], children[-1].span[1]), tuple(children))
    if len(children) >= 3 and not is_stable(label):
        raise InternalInvariantError("wide node with unstable label")
    return tree


def _pair_up(trees: list[FactTree]) -> list[FactTree]:
    """One level of left-to-right pairing; an odd last tree moves up as is."""
    paired = [_node(trees[i : i + 2]) for i in range(0, len(trees) - 1, 2)]
    return paired + trees[2 * len(paired) :]


def _binary_combine(trees: list[FactTree]) -> FactTree:
    """Balanced left-to-right pairing; adds ceil(log2 n) levels."""
    while len(trees) > 1:
        trees = _pair_up(trees)
    return trees[0]


def _image(m: Matrix) -> Subspace:
    return Subspace.from_vectors(m.rows, m.columns())


def _kernel_iota(m: Matrix) -> ExtVector:
    _, _, ker = rank_decomp(m)
    return iota(ker)


class _RankTreeBuilder:
    """Height-(d+2) tree over a rank-r sequence of existing nodes."""

    def __init__(self, nodes: list[FactTree]):
        self.nodes = nodes
        self.labels = [n.label for n in nodes]
        self.m = len(nodes)
        self.d = self.labels[0].rows

    def product(self, lo: int, hi: int) -> Matrix:
        """Product of elements lo..hi, 1-based inclusive."""
        return reduce(mul, self.labels[lo - 1 : hi])

    def segment(self, lo: int, hi: int) -> FactTree:
        """Canonical subtree over lo..hi: leaf, binary, or one wide node
        (wide-node stability is asserted in _node)."""
        return _node(self.nodes[lo - 1 : hi])

    def small(self, lo: int, hi: int) -> FactTree:
        """Up to three elements with binary nodes only (no stability needed)."""
        if hi - lo < 2:
            return self.segment(lo, hi)
        return _node([_node(self.nodes[lo - 1 : hi - 1]), self.nodes[hi - 1]])

    def build(self) -> FactTree:
        m = self.m
        if m <= 2:
            return _node(self.nodes)
        if rank(self.labels[0]) == 0:
            # all-zero sequence: one wide node, label 0 is stable
            return _node(list(self.nodes))

        self.images = [iota(_image(lbl)) for lbl in self.labels[: m - 1]]
        self.greedy = greedy_basis(self.images)  # 1-based positions into 1..m-1

        tiles: list[FactTree] = []
        tile, cur = self._last_tile()
        tiles.append(tile)
        while cur >= 2:
            tile, cur = self._tile(cur)
            tiles.append(tile)
        tiles.reverse()
        return _binary_combine(tiles)

    def _witness(self, i0: int, max_pos: int) -> int:
        """Greedy position p with [j_p .. i0-1] stable, via the linear
        combination of iota(im M_{i0}) over the greedy vectors."""
        targets = [self.images[j - 1] for j in self.greedy[:max_pos]]
        coeffs = combination(targets, self.images[i0 - 1])
        if coeffs is None:
            raise InternalInvariantError(
                "greedy basis does not span a non-greedy exterior image"
            )
        ker = _kernel_iota(self.labels[i0 - 2])
        for p, c in enumerate(coeffs, start=1):
            if c and not wedge(targets[p - 1], ker).is_zero:
                return p
        raise InternalInvariantError("no stable-segment witness; this is a bug")

    def _tile(self, ell: int) -> tuple[FactTree, int]:
        """Tile ending at j_ell - 1, starting at a greedy index; returns the
        tile and the greedy position it starts at."""
        j = self.greedy
        b = j[ell - 1] - 1
        a0 = j[ell - 2]
        if b == a0:
            return self.nodes[b - 1], ell - 1
        if b - a0 <= 2 or is_stable(self.product(a0, b - 1)):
            return _node([self.segment(a0, b - 1), self.nodes[b - 1]]), ell - 1
        k = self._witness(b, ell - 1)
        return _node([self.segment(j[k - 1], b - 1), self.nodes[b - 1]]), k

    def _last_tile(self) -> tuple[FactTree, int]:
        m, j = self.m, self.greedy
        s = len(j)
        a = j[-1]
        if m - a + 1 <= 3:
            return self.small(a, m), s
        if is_stable(self.product(a, m - 1)):
            return _node([self.segment(a, m - 1), self.nodes[m - 1]]), s
        # the exterior image of the final element is outside the greedy
        # certificate, so split it off and target m-1 instead
        k = self._witness(m - 1, s)
        inner = _node([self.segment(j[k - 1], m - 2), self.nodes[m - 2]])
        return _node([inner, self.nodes[m - 1]]), k


def _check_square_sequence(ms: list[Matrix]) -> int:
    """The common size d of a nonempty sequence of d x d matrices."""
    if not ms:
        raise PreconditionError("empty sequence")
    d = ms[0].rows
    for i, m in enumerate(ms):
        if not (m.is_square and m.rows == d):
            raise PreconditionError(f"matrix {i + 1} is not {d}x{d}")
    return d


def _check_rank_sequence(ms: list[Matrix]) -> int:
    _check_square_sequence(ms)
    r = rank(ms[0])
    for i, m in enumerate(ms):
        if rank(m) != r:
            raise PreconditionError(
                f"not a rank-{r} sequence: element {i + 1} has rank {rank(m)}"
            )
    for i, prod in enumerate(accumulate(ms, mul)):
        if rank(prod) != r:
            raise PreconditionError(
                f"not a rank-{r} sequence: prefix 1..{i + 1} has rank {rank(prod)}"
            )
    return r


def rank_tree_over(nodes: list[FactTree]) -> FactTree:
    """Rank-level construction over existing subtrees (labels must form a
    rank-r sequence; the caller guarantees this)."""
    tree = _RankTreeBuilder(nodes).build()
    d = nodes[0].label.rows
    base = max(n.height for n in nodes)
    if tree.height - base > d + 2:
        raise InternalInvariantError(
            f"rank tree exceeded height bound d+2: added {tree.height - base}"
        )
    return tree


def build_rank_tree(ms: list[Matrix]) -> FactTree:
    _check_rank_sequence(ms)
    return rank_tree_over([_leaf(m, i) for i, m in enumerate(ms)])


def build_tree(ms: list[Matrix]) -> FactTree:
    """Stratified construction: group maximal equal-rank runs, build each run
    with the rank-level construction, pair adjacent results, repeat."""
    d = _check_square_sequence(ms)
    nodes = [_leaf(m, i) for i, m in enumerate(ms)]
    while len(nodes) > 1:
        # a stable running product lets one wide node finish the level; this
        # also keeps rank-0 tails from forcing extra strata
        if len(nodes) >= 3 and is_stable(reduce(mul, (nd.label for nd in nodes))):
            nodes = [_node(nodes)]
            continue
        groups: list[list[FactTree]] = []
        i = 0
        while i < len(nodes):
            r = rank(nodes[i].label)
            prod = nodes[i].label
            j = i + 1
            while j < len(nodes) and rank(nodes[j].label) == r:
                nxt = prod * nodes[j].label
                if rank(nxt) != r:
                    break
                prod = nxt
                j += 1
            groups.append(nodes[i:j])
            i = j
        nodes = _pair_up([rank_tree_over(g) for g in groups])
    tree = nodes[0]
    if tree.height > d * (d + 3):
        raise InternalInvariantError(
            f"tree height {tree.height} exceeds the bound {d * (d + 3)}"
        )
    return tree


def validate_tree_report(t: FactTree, ms: list[Matrix]) -> tuple[bool, str]:
    leaves = list(t.leaves())
    if [lf.label for lf in leaves] != list(ms):
        return False, "yield differs from the input sequence"
    for i, lf in enumerate(leaves):
        if lf.span != (i, i + 1):
            return False, f"leaf {i} has span {lf.span}"
    if t.span != (0, len(ms)):
        return False, f"root span {t.span} does not cover the sequence"
    for node in t.iter_nodes():
        if node.is_leaf:
            continue
        pos = node.span[0]
        for c in node.children:
            if c.span[0] != pos:
                return False, f"children of {node.span} are not contiguous"
            pos = c.span[1]
        if pos != node.span[1]:
            return False, f"children of {node.span} do not cover it"
        if reduce(mul, (c.label for c in node.children)) != node.label:
            return False, f"product condition fails at {node.span}"
        if len(node.children) >= 3 and not is_stable(node.label):
            return False, f"stability condition fails at {node.span}"
    return True, "ok"


def validate_tree(t: FactTree, ms: list[Matrix]) -> bool:
    ok, _ = validate_tree_report(t, ms)
    return ok


def extract_stable_factor(w, mp: MorphismPair, sign: int) -> tuple[int, int]:
    """Span (i, j) of a factor u = w[i:j] with phi(u) stable and
    sign*omega(u) > 0.  Callers must ensure sign*omega(w) >= eta; with the
    default eta the factorization-tree bound guarantees a hit."""
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    w = mp.check_word(w)
    if sign * mp.weight(w) < mp.eta:
        raise PreconditionError(
            f"extract_stable_factor needs sign*omega(w) >= eta = {mp.eta}"
        )
    tree = build_tree([mp.phi[a] for a in w])
    pw = mp.prefix_weights(w)

    def span_weight(span: tuple[int, int]) -> int:
        return pw[span[1]] - pw[span[0]]

    for node in tree.iter_nodes():
        if len(node.children) >= 3 and sign * span_weight(node.span) > 0:
            return node.span
    for node in tree.iter_nodes():
        if sign * span_weight(node.span) > 0 and is_stable(node.label):
            return node.span
    raise InternalInvariantError(
        "no stable factor of the requested sign; with the default eta this "
        "cannot happen, with an override it can"
    )
