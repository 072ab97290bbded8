"""Independent desk oracles the test suite checks the library against.

Everything here is computed straight from Young-diagram definitions (hook
lengths, rim hooks, tabloids, bead counts) and deliberately avoids the
abacus/signature machinery under test.  The exceptions are the searches and
cross-checks the library no longer carries, kept to check it:
block_scan_preimage, the block scan behind the ladder preimage (its
enumerate_block and regularize are themselves checked against the oracles
here); ladder_preimage, the pruned search that lists a ladder class row by
row, which the library replaced by a per-block index of irreducible Specht
labels; irreducible_by_displays and block_index_by_displays, the
irreducibility criterion and that index checked on every display position
by position (runner_data, condition_ii, condition_iii), where the library
reads each runner's highest bead and lowest gap;
peel_by_segments, the p-rim peel as nested segment loops over a per-row
rim list; regularize_by_node_sets, regularization as the set of every
filled ladder slot and three scans of it; add_p_rim_by_search, the p-rim
addition that tried every choice of segment ends and re-peeled each
candidate; table1_by_local_signature, the
Table I loop that judged every candidate by its full local signature;
table1_by_row_sets, the Table I loop that read each pair's word off
bead-row sets (a symmetric difference, sorted) instead of bit masks;
difficulty_rows_by_erasure, the pair criterion read off every pair's sign
string with "-+" erased until none is left (no cancel_word, no bit-mask
word), which derive_table1's bit-test filter must pass whenever it finds a
difficult pair; table2_candidates_by_pair_scan, Table II's
candidates from every ordered pair of Table I rows;
signature_by_residue, the signed word of one residue filtered from all
nodes and sorted, which the library replaced by one walk along the rim;
cores_by_bead_counts and core_counts, every p-core up to a size from
normalised bead counts and the count of them from their generating
function;
shortest_certificate_length, the certifier's search redone as level sets
over its rule tables (rule_edges reads one rule's edges off the table);
and, on top of selfext.signature, difficult_abacus_check (the abacus form
of difficulty), node_adjacency_checks (singularity of normal/conormal
moves against node steps), add_all_addable (adding every i-addable node
at once) and crystal_mullineux (the Mullineux map along good nodes).
"""

import itertools
from functools import lru_cache

from selfext.abacus import (bead_rows, component_from_rows, core_and_weight,
                            rows_for_component)
from selfext.bijections import ladder_counts, peel_p_rim, regularize
from selfext.blocks import BlockId, enumerate_block
from selfext.certifier import REDUCTIONS, TERMINALS
from selfext.partitions import (add_node, is_p_regular, is_p_restricted,
                                node_residue, remove_node)
from selfext.signatures import (SignatureReport, cancel_word, e_tilde, f_tilde,
                                signature, signatures)
from selfext.specht import SpechtResult
from selfext.tables import (RunnerPairConfig, RunnerTripleConfig,
                            locally_difficult)


# ---------------------------------------------------------------------------
# diagrams and hooks


def partitions_of(n, max_part=None):
    """Yield all partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def groupby_p_regular(la, p):
    """No part value repeated p or more times, counted run by run."""
    return all(len(list(g)) < p for _, g in itertools.groupby(la))


def conjugate(la):
    """Transpose of the Young diagram."""
    if not la:
        return ()
    return tuple(sum(1 for part in la if part >= j) for j in range(1, la[0] + 1))


def dominates(la, mu):
    """Partial sums of la bound those of mu (same size assumed)."""
    total_la = total_mu = 0
    for k in range(max(len(la), len(mu))):
        total_la += la[k] if k < len(la) else 0
        total_mu += mu[k] if k < len(mu) else 0
        if total_la < total_mu:
            return False
    return True


def removable_nodes(la):
    """Nodes whose removal leaves a partition, ordered by row ascending."""
    out = []
    for k in range(len(la)):
        below = la[k + 1] if k + 1 < len(la) else 0
        if la[k] > below:
            out.append((k + 1, la[k]))
    return out


def addable_nodes(la):
    """Nodes whose addition gives a partition, ordered by row ascending."""
    out = [(1, la[0] + 1)] if la else [(1, 1)]
    for k in range(1, len(la)):
        if la[k - 1] > la[k]:
            out.append((k + 1, la[k] + 1))
    if la:
        out.append((len(la) + 1, 1))
    return out


def hook_lengths(la):
    """Map each node (row, col), 1-based, to its hook length."""
    cols = conjugate(la)
    return {
        (i, j): (la[i - 1] - j) + (cols[j - 1] - i) + 1
        for i in range(1, len(la) + 1)
        for j in range(1, la[i - 1] + 1)
    }


def valuation(n, p):
    """Largest k with p**k dividing n (n positive)."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# rim hooks: core and weight without the abacus


def remove_rim_hook(la, node):
    """Remove the rim hook of the given node: rows slide up along the rim."""
    i, j = node
    cols = conjugate(la)
    leg = cols[j - 1] - i
    rows = list(la)
    for k in range(i, i + leg):
        rows[k - 1] = rows[k] - 1
    rows[i + leg - 1] = j - 1
    return tuple(part for part in rows if part > 0)


def rim_core_and_weight(la, p):
    """Strip rim p-hooks greedily until none remain."""
    weight = 0
    while True:
        hooks = hook_lengths(la)
        target = next((node for node, h in hooks.items() if h == p), None)
        if target is None:
            return la, weight
        la = remove_rim_hook(la, target)
        weight += 1


def residue_multiset(la, p):
    """Sorted residues (col - row) mod p over all nodes; block invariant."""
    return tuple(sorted((j - i) % p
                        for i in range(1, len(la) + 1)
                        for j in range(1, la[i - 1] + 1)))


# ---------------------------------------------------------------------------
# Specht irreducibility: valuation criterion, weight-one chains, Gram rank


def jm_irreducible(la, p):
    """Valuation form of the irreducibility criterion (p odd).

    Reducible iff some node (a,b) with p | hook carries, in its row and in
    its column, nodes whose hook valuations both differ from its own.
    """
    hooks = hook_lengths(la)
    vals = {node: valuation(h, p) for node, h in hooks.items()}
    for (a, b), v in vals.items():
        if v == 0:
            continue
        row_differs = any(vals[(a, y)] != v for y in range(1, la[a - 1] + 1))
        col_differs = any(vals[(x, b)] != v for (x, y) in vals if y == b)
        if row_differs and col_differs:
            return False
    return True


def weight_one_verdict(la, p):
    """Irreducibility for blocks of weight <= 1, from the decomposition chain.

    Weight 0: one Specht, irreducible.  Weight 1: the block is a dominance
    chain of p partitions and exactly the two ends are irreducible.
    """
    core, weight = rim_core_and_weight(la, p)
    if weight == 0:
        return True
    if weight != 1:
        raise ValueError(f"{la} has weight {weight}, not <= 1")
    n = sum(la)
    block = [mu for mu in partitions_of(n)
             if residue_multiset(mu, p) == residue_multiset(la, p)]
    block.sort(key=lambda mu: [sum(mu[:k]) for k in range(1, n + 1)])
    assert len(block) == p
    return la in (block[0], block[-1])


def standard_tableaux(la):
    """All standard tableaux of shape la, as tuples of row tuples."""
    n = sum(la)
    if n == 0:
        return [()]
    out = []
    corners = [i for i in range(1, len(la) + 1)
               if la[i - 1] > (la[i] if i < len(la) else 0)]
    for i in corners:
        smaller = tuple(part - (row == i) for row, part in enumerate(la, 1))
        smaller = tuple(part for part in smaller if part > 0)
        for t in standard_tableaux(smaller):
            rows = list(t) + [()] * (len(la) - len(t))
            rows[i - 1] = rows[i - 1] + (n,)
            out.append(tuple(rows))
    return out


def _polytabloid(t):
    """Tabloid expansion of e_t: {row-set tuple: signed count}."""
    columns = []
    width = len(t[0]) if t else 0
    for j in range(width):
        columns.append([row[j] for row in t if len(row) > j])
    coeffs = {}
    for perms in itertools.product(*(itertools.permutations(c)
                                     for c in columns)):
        sign = 1
        for original, arranged in zip(columns, perms):
            order = [original.index(v) for v in arranged]
            inversions = sum(1 for a in range(len(order))
                             for b in range(a + 1, len(order))
                             if order[a] > order[b])
            sign *= (-1) ** inversions
        rows = [[] for _ in t]
        for j, arranged in enumerate(perms):
            for depth, value in enumerate(arranged):
                rows[depth].append(value)
        key = tuple(frozenset(r) for r in rows)
        coeffs[key] = coeffs.get(key, 0) + sign
    return coeffs


def _rank_mod_p(matrix, p):
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows))
                      if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def gram_irreducible(la, p):
    """Ground truth for p-regular la: Specht irreducible iff the bilinear
    form on the standard polytabloids has full rank mod p."""
    tableaux = standard_tableaux(la)
    expansions = [_polytabloid(t) for t in tableaux]
    gram = [[sum(a.get(key, 0) * b[key] for key in b) for b in expansions]
            for a in expansions]
    return _rank_mod_p(gram, p) == len(tableaux)


# ---------------------------------------------------------------------------
# Rouquier cores


def rouquier_by_full_scan(rho, p, d):
    """Whether some display of the core rho with between max(h, 1) and
    h + p(d+1) beads (h its height) has runner bead counts growing by at
    least d-1 from each runner to the next."""
    h = len(rho)
    for beads in range(max(h, 1), h + p * (d + 1) + 1):
        # the beads - h zero parts fill positions 0 .. beads - h - 1
        counts = [(beads - h - j + p - 1) // p for j in range(p)]
        for i, part in enumerate(rho, start=1):
            counts[(part + beads - i) % p] += 1
        if all(counts[j + 1] - counts[j] >= d - 1 for j in range(p - 1)):
            return True
    return False


def cores_by_bead_counts(p, limit):
    """Every p-core of at most `limit` boxes, from normalised runner bead
    counts.  One more bead rotates the counts, so every core has a display
    whose runner 0 holds fewest beads, and none once full rows are taken
    off.  A core's size counts the (bead, empty slot below it) pairs, and
    runners j < k holding a and b beads add T(b - a) of them when b >= a and
    T(a - b - 1) otherwise (T(x) = x(x+1)/2), so the counts are extended
    runner by runner while the pairs so far fit in `limit`."""
    def pairs(a, b):
        s = b - a if b >= a else a - b - 1
        return s * (s + 1) // 2

    found = set()

    def extend(counts, left):
        if len(counts) == p:
            beads = sorted((j + p * t for j, c in enumerate(counts)
                            for t in range(c)), reverse=True)
            found.add(tuple(q - (len(beads) - 1 - i)
                            for i, q in enumerate(beads)
                            if q > len(beads) - 1 - i))
            return
        for b in itertools.count():
            cost = sum(pairs(a, b) for a in counts)
            if cost <= left:
                extend(counts + (b,), left - cost)
            elif b > max(counts):  # from here on the cost only grows
                return

    extend((0,), limit)
    return found


def core_counts(p, limit):
    """The number of p-cores of each size up to limit: the coefficients of
    prod_k (1 - q^{pk})^p / (1 - q^k)."""
    series = [1] + [0] * limit
    for k in range(1, limit + 1):
        for n in range(k, limit + 1):  # divide by 1 - q^k
            series[n] += series[n - k]
        for _ in range(p if p * k <= limit else 0):  # times 1 - q^{pk}
            for n in range(limit, p * k - 1, -1):
                series[n] -= series[n - p * k]
    return series


# ---------------------------------------------------------------------------
# signature cross-checks


def erase_minus_plus(word):
    """The (label, sign) entries of word left after erasing adjacent "-+"
    pairs one at a time until none is left (not cancel_word's single pass)."""
    reduced = list(word)
    while True:
        pair = next((k for k in range(len(reduced) - 1)
                     if (reduced[k][1], reduced[k + 1][1]) == ("-", "+")), None)
        if pair is None:
            return reduced
        del reduced[pair:pair + 2]


def signature_by_residue(la, p, i):
    """The residue-i signature report read one residue at a time: keep the
    removable and addable nodes of residue i, sort them by content, and erase
    adjacent "-+" pairs with erase_minus_plus."""
    entries = sorted([(col - row, (row, col), "-")
                      for row, col in removable_nodes(la)
                      if node_residue((row, col), p) == i]
                     + [(col - row, (row, col), "+")
                        for row, col in addable_nodes(la)
                        if node_residue((row, col), p) == i])
    word = tuple((node, sign) for _, node, sign in entries)
    reduced = erase_minus_plus(word)
    normals = tuple(node for node, sign in reduced if sign == "-")
    conormals = tuple(node for node, sign in reversed(reduced) if sign == "+")
    return SignatureReport(la, p, i, word, normals, conormals)


def difficult_abacus_check(la, p, i):
    """Abacus form of difficulty: good bead at a = b + p with the cogood gap
    at b and every position strictly between b and a-1 occupied."""
    sig = signature(la, p, i)
    if sig.epsilon == 0 or sig.phi == 0:
        raise ValueError(f"difficulty pattern needs eps_i, phi_i > 0 at i={i}")
    n = len(la) + 1
    beta = set(rows_for_component(la, n))  # one runner's rows are beta-numbers
    row, col = sig.good
    a = col + n - row
    row, col = sig.cogood
    b = (col - 1) + n - row + 1
    return a == b + p and all(q in beta for q in range(b + 1, a - 1))


def node_adjacency_checks(la, p, i):
    """For each normal A_r / conormal B_r, compare "result is p-singular"
    with the step-pattern test A_r = A_{r-1} + (1-p, 1) resp.
    B_r = B_{r-1} + (p-1, -1); raise AssertionError where they differ.
    Returns (removals, additions) with entries (r, singular, adjacent)."""
    sig = signature(la, p, i)
    removals = []
    for r, node in enumerate(sig.normals, start=1):
        singular = not is_p_regular(remove_node(la, node), p)
        prev = sig.normals[r - 2] if r >= 2 else None
        adjacent = r >= 2 and node == (prev[0] + 1 - p, prev[1] + 1)
        assert singular == adjacent, (la, i, "A", r)
        removals.append((r, singular, adjacent))
    additions = []
    for r, node in enumerate(sig.conormals, start=1):
        singular = not is_p_regular(add_node(la, node), p)
        prev = sig.conormals[r - 2] if r >= 2 else None
        adjacent = r >= 2 and node == (prev[0] + p - 1, prev[1] - 1)
        assert singular == adjacent, (la, i, "B", r)
        additions.append((r, singular, adjacent))
    return tuple(removals), tuple(additions)


def add_all_addable(la, p, i):
    """la with every addable node of residue i added."""
    for node in addable_nodes(la):
        if node_residue(node, p) == i % p:
            la = add_node(la, node)
    return la


# ---------------------------------------------------------------------------
# the Mullineux map: p-rims by segments and by search, and crystals


def peel_by_segments(la, p: int):
    """peel_p_rim as a list of rim nodes per row and a walk that fills one
    segment of p nodes at a time, row by row, then restarts a row lower."""
    if not la:
        raise ValueError("cannot peel the empty partition")
    h = len(la)
    rim = [la[k] - max(la[k + 1] if k + 1 < h else 0, 1) + 1 for k in range(h)]
    removed = [0] * h
    row = 0
    total = 0
    while row < h:
        remaining = p
        while remaining > 0 and row < h:
            take = min(rim[row], remaining)
            removed[row] = take
            total += take
            remaining -= take
            if remaining == 0:
                break
            row += 1
        row += 1  # next segment starts at the first rim node of the row below
    new = (la[k] - removed[k] for k in range(h))
    return tuple(part for part in new if part), total


def add_p_rim_by_search(mu, p: int, a: int, s: int):
    """The unique partition of height s whose p-rim has size a and peels to mu.

    Searches over segment-end rows; every candidate is checked by re-peeling.
    """
    m = (a + p - 1) // p
    if m == 0 or s < m:
        raise ValueError(f"no partition adds a p-rim of size {a} at height {s}")
    counts = [p] * (m - 1) + [a - p * (m - 1)]

    def mu_part(r):  # 1-based
        return mu[r - 1] if r - 1 < len(mu) else 0

    solutions = []

    def build(ends):
        parts = [None] * s
        starts = [1] + [e + 1 for e in ends[:-1]]
        for b, e, c in zip(starts, ends, counts):
            for r in range(b + 1, e + 1):
                parts[r - 1] = mu_part(r - 1) + 1
            parts[b - 1] = c - (e - b) + mu_part(e)
        if any(x is None or x <= 0 for x in parts):
            return
        for k in range(s - 1):
            if parts[k] < parts[k + 1]:
                return
        cand = tuple(parts)
        peeled, rim = peel_p_rim(cand, p)
        if peeled == mu and rim == a and len(cand) == s:
            solutions.append(cand)

    def search(k, prev_end):
        if k == m:
            build(search.ends[:])
            return
        start = prev_end + 1
        last = s if k == m - 1 else s - 1
        for e in range(start, min(start + counts[k] - 1, last) + 1):
            if k == m - 1 and e != s:
                continue
            search.ends.append(e)
            search(k + 1, e)
            search.ends.pop()

    search.ends = []
    search(0, 0)
    solutions = sorted(set(solutions))
    if not solutions:
        raise ValueError(f"no partition adds a p-rim ({a},{s}) to {mu}")
    if len(solutions) > 1:
        raise RuntimeError(f"p-rim addition not unique on {mu}: {solutions}")
    return solutions[0]


def crystal_mullineux(la, p):
    """M(la) by crystals (Ford-Kleshchev): if la = f~_{i_1} ... f~_{i_n} of
    the empty partition, then M(la) = f~_{-i_1} ... f~_{-i_n} of it."""
    path = []
    while la:
        i = next(i for i in range(p) if signature(la, p, i).epsilon)
        la = e_tilde(la, p, i)
        path.append(i)
    for i in reversed(path):
        la = f_tilde(la, p, -i % p)
    return la


# ---------------------------------------------------------------------------
# regularization and its preimages


def regularize_by_node_sets(la, p: int) -> tuple:
    """la^R as the set of nodes that fill the top of every ladder, checked
    left- and top-justified and p-regular by scans of that set."""
    filled = set()
    for ell, k in ladder_counts(la, p).items():
        # ladder positions from the top: c = c_max, c_max-1, ..., 1
        c_max = (ell - 1) // (p - 1) + 1
        for c in range(c_max, c_max - k, -1):
            filled.add((ell - (p - 1) * (c - 1), c))
    row_len = {}
    for r, c in filled:
        row_len[r] = max(row_len.get(r, 0), c)
    if any((r, c) not in filled for r in row_len for c in range(1, row_len[r] + 1)):
        raise RuntimeError(f"ladder filling not left-justified for {la}")
    # top-justified as well: no row gaps and weakly decreasing rows
    if any((r - 1, c) not in filled for r, c in filled if r > 1):
        raise RuntimeError(f"ladder filling not top-justified for {la}")
    out = tuple(row_len[r] for r in range(1, len(row_len) + 1))
    if not is_p_regular(out, p):
        raise RuntimeError(f"ladder filling not {p}-regular for {la}")
    return out


def block_scan_preimage(mu, p):
    """Every nu with nu^R = mu, found by regularizing each member of mu's
    block, in block-enumeration order."""
    block = BlockId(*core_and_weight(mu, p), p)
    return [nu for nu in enumerate_block(block) if regularize(nu, p) == mu]


def ladder_preimage(mu, p: int) -> list:
    """Every nu with nu^R = mu, in the order the search meets them.

    Regularization keeps ladder counts, so these are the partitions with mu's
    ladder counts.  For p > 2 at most one of them labels an irreducible
    Specht module (that S^nu is D^{nu^R}, and Specht modules are pairwise
    non-isomorphic), so their order does not matter.  They are built row by
    row, depth first on an explicit stack (so a member may have any number of
    rows), and a branch is dropped when a ladder would overflow, when row r
    leaves ladder r (final from then on) short, or when the farthest ladder
    still short is out of reach.
    """
    counts = ladder_counts(mu, p)
    top = max(counts, default=0)
    # need[top + 1] stays 0, which ends the scan for `last` in reachable
    need = [counts.get(ell, 0) for ell in range(top + 2)]
    found = []
    # one frame [r, longest, left, c] per open row: row r holds c nodes (their
    # ladders already taken from need), at most longest, with left nodes
    # still to place from row r on
    stack = []

    def reachable(r, longest):
        # a later row r' exists only while ladder r' still needs its first
        # node, and the farthest ladder still short needs a node in one of
        # those rows at a column <= longest
        last = r
        while need[last + 1]:
            last += 1
        far = top
        while far > r and not need[far]:
            far -= 1
        return far - (p - 1) * (longest - 1) <= last

    def open_row(r, longest, left):
        if left == 0:
            found.append(tuple(frame[3] for frame in stack))
        elif need[r] == 1:
            stack.append([r, longest, left, 0])

    open_row(1, top, sum(mu))
    while stack:
        frame = stack[-1]
        r, longest, left, c = frame
        ell = r + (p - 1) * c    # the ladder of node (r, c + 1)
        if c < longest and ell <= top and need[ell]:
            need[ell] -= 1
            frame[3] = c = c + 1
            if reachable(r, c):
                open_row(r + 1, c, left - c)
        else:
            for k in range(c):
                need[r + (p - 1) * k] += 1
            stack.pop()

    return found


# ---------------------------------------------------------------------------
# the irreducibility criterion on whole displays


def runner_data(la, beads, p):
    """Beta-numbers, bead rows and quotient components of la read with
    beads >= len(la) beads.  la must be a normalised tuple."""
    beta = rows_for_component(la, beads)  # one runner's rows are beta-numbers
    rows = bead_rows(beta, p)
    return beta, rows, [component_from_rows(r) for r in rows]


def condition_ii(beta, p, j, rows_j):
    """Every occupied position above the first gap of runner j is on runner j."""
    gaps = [t for t in range(len(rows_j) + 1) if t not in rows_j]
    first_gap = j + p * gaps[0]
    return all(q % p == j for q in beta if q > first_gap)


def condition_iii(beta, p, k, rows_k):
    """Every position below the last bead of runner k, off runner k, is occupied."""
    if not rows_k:
        return True
    last = k + p * rows_k[-1]
    occupied = set(beta)
    return all(q in occupied for q in range(last) if q % p != k)


@lru_cache(maxsize=65536)
def irreducible_by_displays(la, p):
    """The recursion behind specht_irreducible; la is a normalised tuple."""
    h = max(len(la), 1)
    beta, rows, comps = runner_data(la, h, p)
    busy = sum(1 for comp in comps if comp)
    if busy == 0:
        # empty quotient: weight 0, a core
        return SpechtResult(la, p, True)
    if busy > 2:
        # one more bead only rotates the runners, so every display has more
        # than two nonempty runners and no (j, k) pair can pass
        return SpechtResult(la, p, False)
    for beads in range(h, h + p):
        if beads > h:
            beta, rows, comps = runner_data(la, beads, p)
        nonempty = [j for j in range(p) if comps[j]]
        for j in range(p):
            for k in range(p):
                if any(l not in (j, k) for l in nonempty):
                    continue
                if not condition_ii(beta, p, j, rows[j]):
                    continue
                if not condition_iii(beta, p, k, rows[k]):
                    continue
                if not is_p_regular(comps[j], p):
                    continue
                if not is_p_restricted(comps[k], p):
                    continue
                sub_j = irreducible_by_displays(comps[j], p)
                if not sub_j:
                    continue
                sub_k = irreducible_by_displays(comps[k], p)
                if not sub_k:
                    continue
                return SpechtResult(la, p, True, beads, j, k, sub_j, sub_k)
    return SpechtResult(la, p, False)


def block_index_by_displays(core, w, p):
    """nu^R -> nu for every nu in the block (core, w) with S^nu irreducible.

    The criterion of irreducible_by_displays, read backwards: on a display
    with a run of p bead counts from len(core) + p*w on (enough for every
    member, each runner holding at least w beads; p more beads add a full
    row, which changes neither the components nor conditions ii/iii), put an
    irreducible p-regular label on runner j and an irreducible p-restricted
    one on runner k, sizes adding up to w (one label on j = k), and keep the
    partition when conditions ii/iii hold.  For p > 2 no two such nu share
    nu^R: S^nu is D^{nu^R}, and Specht modules are pairwise non-isomorphic.
    """
    labels = [[la for la in partitions_of(v) if irreducible_by_displays(la, p)]
              for v in range(w + 1)]
    regular = [[a for a in row if is_p_regular(a, p)] for row in labels]
    restricted = [[b for b in row if is_p_restricted(b, p)] for row in labels]
    pairs = [(a, b) for v in range(w + 1)
             for a in regular[v] for b in restricted[w - v]]
    single = [a for a in regular[w] if is_p_restricted(a, p)]
    found = set()
    low = len(core) + p * w
    for beads in range(low, low + p):
        base = bead_rows(rows_for_component(core, beads), p)
        placed = [{la: rows_for_component(la, len(r)) for row in labels
                   for la in row} for r in base]
        for j in range(p):
            for k in range(p):
                for alpha, beta in pairs if j != k else ((a, a) for a in single):
                    rows = base.copy()
                    rows[j], rows[k] = placed[j][alpha], placed[k][beta]
                    positions = [l + p * r for l in range(p) for r in rows[l]]
                    if (condition_ii(positions, p, j, rows[j])
                            and condition_iii(positions, p, k, rows[k])):
                        found.add(component_from_rows(positions))
    index = {}
    for nu in found:
        mu = regularize(nu, p)
        if index.setdefault(mu, nu) != nu:
            raise RuntimeError(f"irreducible Specht labels {index[mu]} and "
                               f"{nu} both regularize to {mu} at p={p}")
    return index


# ---------------------------------------------------------------------------
# certificate search


def rule_edges(tag, la, p):
    """The (params, target) edges of the REDUCTIONS rule tag from la."""
    return REDUCTIONS[tag](la, p, signatures)


def shortest_certificate_length(la, p, rules, k):
    """Fewest steps of a certificate for la over the enabled rules, if at
    most k, else None.

    Level 0 is {la}; level d+1 is every target of a REDUCTIONS edge (the
    Mullineux twin included) from level d that no earlier level holds.  The
    answer is the first d <= k at which any enabled terminal holds on a
    member of level d.
    """
    finds = [find for tag, find in TERMINALS.items() if tag in rules]
    tags = [tag for tag in REDUCTIONS if tag in rules]
    level, seen = {la}, {la}
    for d in range(k + 1):
        if any(find(mu, p, signatures) is not None
               for mu in level for find in finds):
            return d
        level = {target for mu in level for tag in tags
                 for _, target in rule_edges(tag, mu, p)} - seen
        seen |= level
    return None


# ---------------------------------------------------------------------------
# difficulty tables


def table1_by_local_signature(max_weight):
    """Table I as a validated RunnerPairConfig and a locally_difficult test
    (a full local signature) per candidate, in derive_table1's order."""
    found = []
    for w in range(2, max_weight + 1):
        for left_size in range(w + 1):
            for left in partitions_of(left_size):
                for right in partitions_of(w - left_size):
                    for gap in range(1, w):
                        pair = RunnerPairConfig(left, right, gap)
                        if locally_difficult(pair):
                            found.append(pair)
    found.sort(key=lambda c: (c.weight, -c.gap, c.right, c.left))
    return found


def table1_by_row_sets(max_weight):
    """Table I with each pair's signed word read off bead-row sets: the rows
    with a bead on exactly one runner, sorted, "+" for the left runner and
    "-" for the right, each runner at its own base w + gap + 2."""
    found = []
    for w in range(2, max_weight + 1):
        for left_size in range(w + 1):
            for left in partitions_of(left_size):
                for right in partitions_of(w - left_size):
                    for gap in range(1, w):
                        base = w + gap + 2
                        left_rows = set(rows_for_component(left, base))
                        right_rows = rows_for_component(right, base + gap)
                        rows = sorted(left_rows ^ set(right_rows))
                        word = "".join("+" if t in left_rows else "-"
                                       for t in rows)
                        plus, minus = cancel_word(zip(rows, word))
                        if minus and plus and minus[0] == plus[-1] + 1:
                            found.append(RunnerPairConfig(left, right, gap))
    found.sort(key=lambda c: (c.weight, -c.gap, c.right, c.left))
    return found


def difficulty_rows_by_erasure(left, right):
    """(good row, cogood row) of a difficult pair given as the bit mask of
    each runner's rows, or None.  Each row with a bead on one runner only
    gives a sign, "+" for the left runner and "-" for the right, rows
    ascending; after erase_minus_plus the pair is difficult when its lowest
    "-" sits one row above its highest "+"."""
    signs = [(row, "+" if left >> row & 1 else "-")
             for row in range(max(left, right).bit_length())
             if (left >> row & 1) != (right >> row & 1)]
    reduced = erase_minus_plus(signs)
    plus = [row for row, sign in reduced if sign == "+"]
    minus = [row for row, sign in reduced if sign == "-"]
    if not (minus and plus and minus[0] == plus[-1] + 1):
        return None
    return minus[0], plus[-1]


def table2_candidates_by_pair_scan(pairs):
    """Table II's candidates from every ordered pair of Table I rows whose
    runners chain, in table2_candidates's order."""
    out = []
    for first in pairs:
        for second in pairs:
            if first.right != second.left:
                continue
            triple = RunnerTripleConfig(first.left, first.right, second.right,
                                        first.gap, second.gap)
            if triple.weight <= 7:
                out.append(triple)
    out.sort(key=lambda t: (t.weight, t.gaps, t.right, t.middle, t.left))
    return out
