"""The tiling behind every matching formula, the matched-vertex-set count
|M(G,k)| and the matchable-pair count.

tiling_poly sums over the tilings of the vertices by lone vertices (weight
1), edges and listed cycles: with weight x per edge it is the matching
generating polynomial, with even-cycle tiles the engine's formula of
either type, and reversed the mu-polynomial.  It is one fold over the
blocks of any graph: a recurrence along each bridge and cycle, and a DP
over the vertex masks of each other block alone.
matchable_pairs is the one count behind the dense routes (the suspension
gamma of any graph, |M(G,k)| of any bipartite graph): it counts each
block once, so its work and its guard follow the largest block.  Each
block is renumbered once, hubs first, from its own edge list
(_block_order), and the tiling's mask DP, the form rule and all three
forms of the pair count read only that block-local view, so a block's
work follows the block, not its labels or the graph's size.  A
suspension block of at most SUBSETS_UP_TO vertices runs one
DP over its vertex subsets, at most 2^s ints of up to 2^s bits.  Any
other block grows half the ordered pairs where swapping A and B is a
symmetry, and holds each A's matchable B's as one subset bitmap where
that costs less than a set of vertex masks, by the vertices t a B can
hold, the share of edges and the tracked cut vertices; the bitmap's
memory, O(s) ints of 2^t bits, is sized by the guard.  Both counts are
one fold, _fold_blocks, over the blocks in the order classify's
depth-first search closed them, each after the blocks below it: each
count gives only a block's pair (with and without its top vertex) from
the pairs of the vertices below it, and one join, _join, meets the
blocks at a vertex.  Nothing here reads the graph's adjacency masks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Optional

from .errors import BoundExceededError, PreconditionError, bound
from .graphs import Graph, GraphClassification, _blocks, classify
from .polynomials import Poly


def tiling_poly(g: Graph, edge: Poly, tiles: Iterable = (),
                cls: Optional[GraphClassification] = None) -> Poly:
    """Sum over the tilings of V(G) by lone vertices, edges and listed tiles
    of the product of the weights: 1 per lone vertex, `edge` per edge,
    `weight` per (vertices, weight) pair of `tiles` (cycles of G).

    Every tile lies in one block, so the blocks of cls (or of one
    graphs._blocks pass, never classify's cycle search) fold bottom-up.  A
    cut vertex c carries (F_c, G_c), the tiling of all below c with and
    without c (1 and 1 with nothing below).  A block with top a gives full
    (a bare) and minus (a removed) to _fold_blocks; a root block folds at
    its smallest vertex a and joins what hangs below a itself.
    For a bridge or a cycle with other vertices v_1..v_k in cycle order:
    a bridge F_1 + edge G_1 and F_1; a cycle minus = t_k, where
    t_j = t_(j-1) F_j + t_(j-2) G_(j-1) G_j edge (t_0 = 1, t_-1 = 0), and
    full - minus = edge G_1 P(v_2..v_k) + edge G_k t_(k-1) + weight prod G_j
    with the tile's term when `tiles` names the cycle.  Any other block
    takes _mask_block, a DP over its own vertex masks.
    """
    return _fold(g, cls, edge, tiles, Poly.one())


def tiling_value(g: Graph, edge: int, tiles: Iterable,
                 cls: Optional[GraphClassification] = None) -> int:
    """tiling_poly with integer weights: the value of the tiling at one
    point, by the same fold.  At a point 2^w it packs the coefficients in
    w-bit slots, which is how the formula routes read gamma off it."""
    return _fold(g, cls, edge, tiles, 1)


def _fold(g: Graph, cls: Optional[GraphClassification], edge, tiles: Iterable,
          one):
    """The fold of tiling_poly over the blocks of g, in the ring of `one`:
    Polys, or ints for the value at a point."""
    weights, at = {}, defaultdict(list)  # at: the tiles by smallest vertex
    for vertices, weight in tiles:
        if weight:
            key = frozenset(vertices)
            weights[key] = weights[key] + weight if key in weights else weight
    for key in weights:
        at[min(key)].append(key)
    bare = (one, one)

    def block(top, vs, edges, kids):
        a = top or min(vs)  # a root block folds at its smallest vertex
        if isinstance(vs, tuple):  # a bridge or a cycle, in cycle order
            i = vs.index(a)
            full, minus = _ring_block(
                [kids.get(v, bare) for v in vs[i + 1:] + vs[:i]], edge,
                weights.get(frozenset(vs)) if weights else None, one)
        else:
            local, order = _block_order(vs, edges)
            full, minus = _mask_block(
                [near for _, near, _ in order], local[a],
                [bare if v == a else kids.get(v, bare) for v in local],
                [(sum(local[v] for v in key), weights[key])
                 for v in vs for key in at.get(v, ()) if key <= vs],
                edge, one)
        # only at a root can a have blocks below it
        return _join(kids[a], full, minus) if a in kids else (full, minus)

    return _fold_blocks(cls.blocks if cls is not None else _blocks(g)[2], one,
                        block)


def _ring_block(kids: list, edge, weight, one) -> tuple:
    """(full, minus) of a bridge or a cycle whose other vertices carry
    kids = [(F_1, G_1), ..]: tiling_poly's recurrence, with the tile's
    `weight` (None when no tile names the cycle)."""
    f, g1 = kids[0]
    if len(kids) == 1:
        return f + edge * g1, f
    f2, g_last = kids[1]
    link = g1 * g_last * edge
    t_prev, t = f, f * f2 + link  # t_1, t_2
    s_prev, s = one, f2  # P(v_2..v_1) = 1, P(v_2..v_2)
    for f, g in kids[2:]:
        link = g_last * g * edge
        t_prev, t = t, t * f + t_prev * link
        s_prev, s = s, s * f + s_prev * link
        g_last = g
    covered = edge * (g1 * s + g_last * t_prev)
    if weight is not None:
        for _, g in kids:
            weight *= g
        covered = covered + weight
    return t + covered, t


def _mask_block(near: list, top: int, kids: list, tiles: list, edge,
                one) -> tuple:
    """(full, minus) of a block that is no bridge or cycle, in the
    block-local view of _block_order: near[i] holds the neighbours of
    vertex bit 1 << i, top is the bit of the block's top and kids[i] =
    (F, G) of vertex i ((1, 1) at top).  The tiling of the block by lone
    vertices, edges and `tiles` (vertex masks in the block, with weights),
    with a vertex weighing F when lone and G when covered, and the same
    without top.

    Memoized per mask of the block's vertices: a set is worth the product
    of its components' values, a lone vertex its F; a component branches
    on the middle vertex v of a longest shortest path: v alone, with a
    neighbour u, or in a tile T, each branch keeping every component C_j
    of C - v whole but the one it takes u or T - v from.  With P_j the
    value of C_j and D_j the sum of the branches inside it, C is worth
    T_k: T_0 = F_v, A_0 = 1, T_j = T_(j-1) P_j + A_(j-1) D_j,
    A_j = A_(j-1) P_j.  The depth follows the halvings of the diameter.
    The block first branches on top, so minus, the block less top, is its
    one C_1 and full is minus + D_1.
    """
    lone, cover = zip(*kids)
    tiles_at = [[] for _ in near]
    for mask, weight in tiles:
        for b in _bits(mask):
            weight *= cover[b.bit_length() - 1]
        for b in _bits(mask):
            tiles_at[b.bit_length() - 1].append((mask, weight))
    memo = {0: one}

    def layers(start: int, within: int) -> list:
        """Breadth-first layers of `within` from the vertex bit `start`."""
        out = [start]
        seen = frontier = start
        while True:
            reach = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                reach |= near[b.bit_length() - 1]
            frontier = reach & within & ~seen
            if not frontier:
                return out
            seen |= frontier
            out.append(frontier)

    def components(mask: int) -> list:
        """(component, last layer of a breadth-first sweep of it from its
        lowest vertex) for each component of `mask`."""
        out = []
        while mask:
            sweep = layers(mask & -mask, mask)
            comp = sum(sweep)
            mask ^= comp
            out.append((comp, sweep[-1]))
        return out

    def value(mask: int):
        """Product of the values of the components of `mask`."""
        got = memo.get(mask)
        if got is None:
            got = one
            for comp, far in components(mask):
                got *= solve(comp, far)
            memo[mask] = got
        return got

    def solve(comp: int, far: int, v: int = 0):
        """Value of a connected set, branching on the vertex bit v, by
        default the middle vertex; `far` is the last layer of a
        breadth-first sweep of it."""
        rest = comp & (comp - 1)
        if not rest:
            return lone[comp.bit_length() - 1]
        got = memo.get(comp)
        if got is not None:
            return got
        if not rest & (rest - 1):  # one edge: both lone, or the edge
            u, w = (comp ^ rest).bit_length() - 1, rest.bit_length() - 1
            got = lone[u] * lone[w] + edge * cover[u] * cover[w]
            memo[comp] = got
            return got
        if not v:
            v = comp & -comp  # where the sweep that found far started
        if far and far != comp ^ v:
            sweep = layers(far & -far, comp)
            v = sweep[-1] & -sweep[-1]
            for layer in reversed(sweep[(len(sweep) - 1) // 2:-1]):
                v = near[v.bit_length() - 1] & layer
                v &= -v
        v = v.bit_length() - 1
        parts = components(comp ^ (1 << v))  # each holds a neighbour of v
        total, lead = lone[v], one
        for i, (part, far) in enumerate(parts):
            inner = None
            for u in _bits(near[v] & part):
                got = value(part ^ u) * cover[u.bit_length() - 1]
                inner = got if inner is None else inner + got
            inner *= edge * cover[v]
            for mask, weight in tiles_at[v]:
                if mask & comp == mask and mask & part:
                    inner = inner + value(part & ~mask) * weight
            p = solve(part, far)
            total = total * p + lead * inner
            if i + 1 < len(parts):
                lead *= p
        memo[comp] = total
        return total

    every = (1 << len(near)) - 1
    return solve(every, 0, top), value(every ^ top)


def _fold_blocks(blocks: Iterable, one, block):
    """Fold a count over `blocks`, the (top, vertices, edges) records of
    classify, each after the blocks below it, top the vertex it hangs from
    (0 at a root): block(top, vertices, edges, kids) gives (full, minus),
    the count of the block and all below it with top bare and without top,
    where kids maps each other vertex of the block that has blocks below
    it to their pair.  hang keeps the pair waiting at each cut vertex,
    joining the blocks that share it; components multiply."""
    total, hang = one, {}
    for top, vertices, edges in blocks:
        kids = {v: hang.pop(v) for v in vertices if v != top and v in hang}
        full, minus = block(top, vertices, edges, kids)
        if top:
            hang[top] = _join(hang[top], full, minus) if top in hang else (full, minus)
        else:
            total *= full
    return total


def _join(below: tuple, full, minus) -> tuple:
    """The pair of G1 u G2 at the one vertex v they share, from below =
    (F(G1), F(G1 - v)) and full, minus = F(G2), F(G2 - v):
    F(G1 u G2) = F(G1) F(G2 - v) + F(G1 - v) (F(G2) - F(G2 - v)) and
    F(G1 u G2 - v) = F(G1 - v) F(G2 - v), for the tiling and for the pair
    count alike."""
    whole, without = below
    return whole * minus + without * (full - minus), without * minus


def check_pair_count_bound(cls: GraphClassification, bounds: Optional[Mapping],
                           name: str) -> None:
    """The guard `name` of a pair count (`cut-sum` on the suspension route,
    `matched-sets` on the type-B interior route): the count runs once per
    block, so it bounds the vertices of the largest block."""
    limit = bound(bounds, name)
    size = max((len(vertices) for _, vertices, _ in cls.blocks), default=0)
    if size > limit:
        raise BoundExceededError(
            f"pair count over a block of {size} > {limit} vertices")


def _bits(mask: int):
    """The set bits of mask, lowest first, each as a mask of its own."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low


def miss_masks(n: int) -> list:
    """miss[v] for v < n: the bitmap of 2^n bits whose bit t is set when the
    vertex mask t leaves out v, built by doubling each run of ones."""
    miss = [1] * n
    for u in range(n):
        miss = [m if v == u else m | m << (1 << u) for v, m in enumerate(miss)]
    return miss


# The largest suspension block whose pairs _subset_tally counts: the
# crossover that README tabulates and tests/pair_form_table.py prints.
SUBSETS_UP_TO = 13


def _block_order(vertices: Iterable, edges: Iterable) -> tuple:
    """(local, order): the one renumbering of the block with these
    vertices and its own edge list `edges` (the record of classify, or
    any graph's edges among these vertices).  local maps each label to its
    bit in the block's own numbering, hubs first (degree in the block
    down, then label), and order holds (v, near, after) for each vertex bit
    v in that numbering: near holds v's neighbours in the block and after
    the block's vertices after v.  The tiling's mask DP, the pair count's
    form rule and all three forms read only this view, and its work
    follows the block's vertices and edges."""
    nb = {v: [] for v in vertices}
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    hubs = sorted(nb, key=lambda v: (-len(nb[v]), v))
    local = {v: 1 << i for i, v in enumerate(hubs)}
    order, after = [], (1 << len(hubs)) - 1
    for v in hubs:
        after ^= local[v]
        near = 0
        for w in nb[v]:
            near |= local[w]
        order.append((local[v], near, after))
    return local, order


def _subset_tally(order: list, sources: int, tracked: int) -> dict:
    """_pair_tally's third form: a DP over the vertex subsets of the block,
    numbered 0..s-1 along its order, so that every shift is local.  Each
    set U with a perfect matching keeps one bitmap F(U) over its A's: bit
    A is set when A is in `sources` and the edges between A and U - A hold
    a perfect matching; F(empty) = 1.  In such a matching the top vertex v
    of U + v + w meets some w below it, one of them in A; so taking v from
    the bottom up, each U below v and each neighbour w < v outside U give
    F(U + v + w) |= F(U) << 2^v | F(U) << 2^w, each term where its vertex
    is a source.  Then U's pairs are all of F(U)'s A's, tallied by
    U & tracked, with no halving.  F(U) spans 2^(v+1) bits for v the top
    of U, so it holds at most 2^s ints of up to 2^s bits.
    """
    fam = [0] * (1 << len(order))  # F(U), by U
    fam[0] = 1
    made = [0]  # the U's with F(U) > 0, each below those after it
    for bit, near, _ in order:
        below = near & bit - 1
        if not bit & sources:  # then w is the one in A
            below &= sources
        for u in made[:]:
            free = below & ~u
            if not free:
                continue
            f = fam[u]
            fv = f << bit if bit & sources else 0
            u |= bit
            while free:
                w = free & -free
                free ^= w
                got = fam[u | w]
                if not got:
                    made.append(u | w)
                fam[u | w] = got | (fv | f << w if w & sources else fv)
    rows = defaultdict(lambda: [0] * (len(order) // 2 + 1))
    for u in made:
        rows[u & tracked][u.bit_count() >> 1] += fam[u].bit_count()
    return rows


def _pair_form(order: list, sources: int, tracked: int) -> str:
    """The form _pair_tally takes for the block with this order: the
    crossover that README tabulates and tests/pair_form_table.py prints.
    A suspension block (every vertex a source) of at most SUBSETS_UP_TO
    vertices takes "subsets".  Any other block takes "bitmap" where it
    costs less than "sets".  The sets' work follows the B's, more of them
    the denser the block; the bitmap's follows 2^t, t the vertices a B can
    hold (the neighbours of sources: all s of the block on the suspension,
    one side on type B), and a split of each part by every tracked vertex
    among them, f of them.  So the bitmap needs a mean degree in the block
    of 2.4, plus 0.4 per tracked vertex past two, plus 0.6 per vertex past
    14 on the suspension, less 0.4 per vertex past 5 on type B.  It never
    pays when 2 f > t, where the split parts the bitmap nearly B by B, nor
    for t < 5 or fewer than 9 vertices.
    """
    s, half = len(order), all(v & sources for v, _, _ in order)
    if half and s <= SUBSETS_UP_TO:
        return "subsets"
    if s < 9:
        return "sets"
    hold = [v for v, near, _ in order if near & sources]
    t, f = len(hold), sum(1 for v in hold if v & tracked)
    if t < 5 or 2 * f > t:
        return "sets"
    need = 24 + 4 * max(0, f - 2) + (6 * max(0, t - 14) if half else -4 * (t - 5))
    degrees = sum(near.bit_count() for _, near, _ in order)
    return "bitmap" if 10 * degrees >= s * need else "sets"


def _pair_tally(order: list, sources: int, tracked: int,
                form: Optional[str] = None) -> dict:
    """{m: [c_0, c_1, ...]}: c_k counts the matchable pairs (A, B) of
    k-sets of the block with this order (_block_order), A in `sources`,
    with (A | B) & tracked = m; the lists may end in zeros.  Every mask,
    m included, is in the block's own numbering.

    The order puts the block's hubs first, and the form rule and every
    form read it.  A grows along the sources in that order, and each A
    keeps its matchable B's: B + b is matchable to A + a (a after A) iff
    B is matchable to A, a is not in B, and b is a neighbour of a in
    neither A + a nor B.  So an A with no matchable B has no
    extension with one.  When every vertex of the block is a source,
    (A, B) is matchable iff (B, A) is, and for k >= 1 exactly one of the
    two has the first vertex of A | B in A: only those pairs grow (every
    vertex of B after the first of A, a family closed under the reduction
    above), and each counts twice.  The swap keeps A | B, so it keeps m
    too.

    An A holds its B's in one of two forms, and both grow the same pairs.
    A set of B's vertex masks adds one element per B and neighbour.  A
    bitmap numbers the t vertices a B can hold, the block's neighbours of
    sources (all s of the block on the suspension, one side on type B),
    from the last one in the order back, and sets bit i when the B with
    local mask i is matchable.  B + b for all B's at once is then
    (B's & miss[a] & miss[b]) shifted up by 2^j, j the number of b and
    miss[v] marking the masks without v; an A's count is its popcount,
    split by each free tracked vertex into the B's with and without it.
    On the suspension the B's of an A whose first vertex is followed by
    t_1 others fit in 2^t_1 bits: the ints shrink as A's first vertex
    moves on.

    The bitmap's work per A follows its 2^t bits (2^t_1 on the
    suspension), the sets' the number of B's, and each tracked vertex
    adds a split of every part; _pair_form weighs the two, the crossover
    that README tabulates.  A suspension block of at most SUBSETS_UP_TO
    vertices skips both and takes the third form, _subset_tally, which
    splits nothing by the tracked vertices.  `form` ("sets", "bitmap" or
    "subsets") forces one, for the tests.
    """
    form = form or _pair_form(order, sources, tracked)
    if form == "subsets":
        return _subset_tally(order, sources, tracked)
    block = (1 << len(order)) - 1
    half, bitmap = sources == block, form == "bitmap"
    width = len(order) // 2 + 1
    rows = defaultdict(lambda: [0] * width)
    rows[0][0] = 1
    if bitmap:  # B's bits 0..t-1: the vertices a B can hold, from the far end
        numbered = [v for v, near, _ in reversed(order) if near & sources]
        t = len(numbered)
        miss = dict.fromkeys(_bits(block), (1 << (1 << t)) - 1)  # in no B
        miss.update(zip(numbered, miss_masks(t)))
        shift = {v: 1 << j for j, v in enumerate(numbered)}

        def split(fam: int, m: int, free: int, k: int) -> None:
            """Add the B's of fam to rows[m | B & free][k], one tracked
            vertex c of free at a time: the B's without c stay, and those
            with c go one level down, so a path holds |free| bitmaps."""
            while free:
                c = free & -free
                free ^= c
                out = fam & miss[c]
                if fam ^ out:
                    split(fam ^ out, m | c, free, k)
                fam = out
                if not fam:
                    return
            rows[m][k] += fam.bit_count()

    along = [entry for entry in order if entry[0] & sources]  # A's vertices

    def grow(start: int, taken: int, fam, allowed: int) -> None:
        for i in range(start, len(along)):
            bit, near, after = along[i]
            if half and not taken:
                allowed = after
            near &= allowed & ~(taken | bit)
            if not near:
                continue
            if bitmap:
                fam_a, grown = fam & miss[bit], 0
                while near:
                    b = near & -near
                    near ^= b
                    grown |= (fam_a & miss[b]) << shift[b]
            else:
                grown = set()
                for b in fam:
                    if b & bit:
                        continue
                    free = near & ~b
                    while free:
                        low = free & -free
                        free ^= low
                        grown.add(b | low)
            if grown:
                a = taken | bit
                k = a.bit_count()
                free = tracked & ~a
                if bitmap:  # no B holds a vertex outside allowed
                    split(grown, a & tracked, free & allowed, k)
                elif free:
                    for b in grown:
                        rows[a & tracked | b & free][k] += 1
                else:
                    rows[a & tracked][k] += len(grown)
                grow(i + 1, a, grown, allowed)

    grow(0, 0, 1 if bitmap else {0}, block)
    if half:
        for row in rows.values():
            row[1:] = [2 * c for c in row[1:]]
    return rows


def matchable_pairs(g: Graph, sources: Optional[Iterable] = None,
                    cls: Optional[GraphClassification] = None) -> list:
    """[c_0, c_1, ...]: c_k counts the pairs (A, B) of disjoint k-sets of
    vertices, A drawn from `sources` (a set of labels, every vertex by
    default), such that the edges of G between A and B hold a perfect
    matching.  A source outside 1..n raises PreconditionError.

    With every vertex as a source this is gamma_k of the suspension (the
    cut-sum formula with its two sums swapped); with one side of a
    bipartition it is |M(G,k)|.  Each edge of a perfect matching lies in
    one block, so a matchable pair of G is one matchable pair per block
    with each cut vertex used in at most one of them.  _fold_blocks walks
    the blocks of cls (classify(g) by default), and each is renumbered
    once (_block_order) and counted once (`_pair_tally`), tallied by the
    local bits of its top a (none at a root) and of the vertices it shares
    with the blocks below it.  Such a child vertex c,
    with H_c everything below it, weighs gamma(H_c - c) where the block
    uses c and gamma(H_c) where it does not; the bit of a gives gamma(X)
    and gamma(X - a) of the block and all below it, X, which the fold
    joins at a as it does the tiling's: the count obeys the same identity
    at a vertex that G1 and G2 share, and components multiply.
    """
    if sources is not None:
        sources = set(sources)
        stray = [v for v in sources if v not in range(1, g.n + 1)]
        if stray:
            raise PreconditionError(f"source {stray[0]!r} is no vertex of the graph")
    cls = cls or classify(g)

    def block(top, vertices, edges, kids):
        local, order = _block_order(vertices, edges)
        src = sum(b for v, b in local.items() if sources is None or v in sources)
        tracked = sum(local[c] for c in kids) | (top and local[top])
        tally = {m: Poly(row) for m, row in _pair_tally(order, src, tracked).items()}
        for c, (whole, without) in kids.items():
            c, folded = local[c], {}
            for m, p in tally.items():
                p = p * (without if m & c else whole)
                key = m & ~c
                folded[key] = folded[key] + p if key in folded else p
            tally = folded
        minus = tally[0]
        return sum((p for m, p in tally.items() if m), minus), minus

    return _fold_blocks(cls.blocks, Poly.one(), block).coeff_list()
