"""Independent oracles used to pin expected values.

Everything here deliberately avoids the library's own algorithms: congruences
by filtering all partitions, subuniverses by filtering all subsets,
isomorphism and partial-lattice embeddings by trying all permutations,
congruence chains by filtering all strict chains, and small lattices by
filtered enumeration of naturally labelled posets.  The slow Con oracle
keeps the algorithms the library used before it built Con from J(Con L):
one closure per cover, a join loop that re-closes unions, and Conc of a
homomorphism by one closure per congruence.  The table oracle keeps the
pair loop and the closure by squaring the order matrix that validate_lattice
used before it searched its tables in numpy; distributivity is checked on
every triple of those tables.  The lifting oracle checks every xi and every
naturality square on its own, with nothing shared or remembered between
nodes and pairs, and the direct-chain oracle tests each chain the same way.
"""

import itertools
from types import SimpleNamespace

from critlat.congruence import conc_of_hom
from critlat.errors import CycleDetected, NotALattice
from critlat.lattice import FiniteLattice

import numpy as np


def all_partitions(n):
    """Every partition of range(n), as lists of blocks (restricted growth)."""
    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(0, [])


def brute_congruences(L):
    """All meet/join compatible partitions, as frozensets of frozensets."""
    out = set()
    for part in all_partitions(L.n):
        bo = {}
        for k, b in enumerate(part):
            for i in b:
                bo[i] = k
        ok = True
        for b in part:
            for x in b:
                for y in b:
                    if x >= y:
                        continue
                    for z in range(L.n):
                        if bo[L.meet_i(x, z)] != bo[L.meet_i(y, z)] \
                                or bo[L.join_i(x, z)] != bo[L.join_i(y, z)]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(frozenset(b) for b in part))
    return out


def con_as_partition_set(con):
    return {frozenset(frozenset(b) for b in t.blocks) for t in con.cons}


def oracle_is_homomorphism(f):
    """Whether f preserves meet and join on every pair of source elements,
    through the scalar meet_i / join_i reads of either representation."""
    S, T, m = f.source, f.target, f.mapping.tolist()
    return all(m[S.meet_i(a, b)] == T.meet_i(m[a], m[b])
               and m[S.join_i(a, b)] == T.join_i(m[a], m[b])
               for a in range(S.n) for b in range(S.n))


def brute_subuniverses(L):
    """All nonempty meet/join closed subsets, by filtering every subset."""
    out = []
    for r in range(1, L.n + 1):
        for sub in itertools.combinations(range(L.n), r):
            s = set(sub)
            if all(L.meet_i(i, j) in s and L.join_i(i, j) in s
                   for i in sub for j in sub):
                out.append(tuple(sub))
    return out


def oracle_least_generating_set(M):
    """The first generating set of M, smallest size first, then
    lexicographic: every subset closed by meets and joins until nothing
    changes."""
    for r in range(M.n + 1):
        for gens in itertools.combinations(range(M.n), r):
            sub = set(gens)
            while True:
                grown = sub | {f(i, j) for f in (M.meet_i, M.join_i) for i in sub for j in sub}
                if grown == sub:
                    break
                sub = grown
            if len(sub) == M.n:
                return list(gens)


def brute_isomorphic(K, L):
    """Order isomorphism by trying every permutation (small sizes only)."""
    if K.n != L.n:
        return None
    for perm in itertools.permutations(range(L.n)):
        if all(K.leq_i(i, j) == L.leq_i(perm[i], perm[j])
               for i in range(K.n) for j in range(K.n)):
            return perm
    return None


def _downsets(below, j):
    """Down-closed subsets of {0..j-1} for the strict-downset masks so far."""
    for bits in range(1 << j):
        ok = True
        for k in range(j):
            if bits >> k & 1 and (below[k] & ~bits):
                ok = False
                break
        if ok:
            yield bits
    return


def _is_lattice_masks(below, n):
    above = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j or below[j] >> i & 1:
                above[i] |= 1 << j
    downc = [below[i] | 1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = above[i] & above[j]
            if not any(common >> k & 1 and above[k] == common for k in range(n)):
                return False
            common = downc[i] & downc[j]
            if not any(common >> k & 1 and downc[k] == common for k in range(n)):
                return False
    return True


def _canonical_key(leq):
    n = len(leq)
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def enumerate_all_lattices(n):
    """All lattices with exactly n elements, up to isomorphism.

    Naturally labelled posets are generated by choosing a down-closed strict
    downset for each new element; lattice totality is then checked on the
    masks and duplicates are removed by a brute-force canonical form.
    """
    found = {}

    def rec(j, below):
        if j == n:
            if _is_lattice_masks(below, n):
                leq = [[bool(i == k or below[k] >> i & 1) for k in range(n)]
                       for i in range(n)]
                key = _canonical_key(leq)
                if key not in found:
                    labels = [f"e{i}" for i in range(n)]
                    found[key] = FiniteLattice._from_order(
                        labels, np.array(leq, dtype=bool), name=f"lat{n}.{len(found)}")
            return
        for bits in _downsets(below, j):
            closure = bits
            for k in range(j):
                if bits >> k & 1:
                    closure |= below[k]
            rec(j + 1, below + [closure])

    rec(0, [])
    return list(found.values())


# --- the pair loop and the closure the library used to build its tables ---

def oracle_tables_from_order(labels, leq):
    """Tables of a partial-order matrix by the former pair loop: for each
    pair i <= j in row-major order, the common up-set is looked up among the
    up-sets (NotALattice "join" when absent), then the common down-set among
    the down-sets ("meet").  Covers by lt & ~(lt @ lt); heights by longest
    chains, elements taken by their number of lower bounds.  Returns
    (meet, join, covers, bottom, top, heights)."""
    n = len(labels)
    leq = np.asarray(leq, dtype=bool)
    up_id = {leq[i].tobytes(): i for i in range(n)}
    down_id = {leq[:, i].tobytes(): i for i in range(n)}
    meet = np.zeros((n, n), dtype=np.int32)
    join = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(i, n):
            k = up_id.get((leq[i] & leq[j]).tobytes())
            if k is None:
                raise NotALattice((labels[i], labels[j]), "join")
            join[i, j] = join[j, i] = k
            k = down_id.get((leq[:, i] & leq[:, j]).tobytes())
            if k is None:
                raise NotALattice((labels[i], labels[j]), "meet")
            meet[i, j] = meet[j, i] = k
    lt = leq & ~np.eye(n, dtype=bool)
    cov = lt & ~(lt @ lt)
    covers = tuple(sorted((int(i), int(j)) for i, j in zip(*np.nonzero(cov))))
    heights = [0] * n
    for j in sorted(range(n), key=lambda x: leq[:, x].sum()):
        heights[j] = max((heights[i] + 1 for i, c in covers if c == j), default=0)
    bottom = int(np.nonzero(leq.sum(axis=1) == n)[0][0])
    top = int(np.nonzero(leq.sum(axis=0) == n)[0][0])
    return meet, join, covers, bottom, top, heights



def oracle_is_distributive(L):
    """Whether x ^ (y v z) = (x ^ y) v (x ^ z) for every triple, on the
    tables oracle_tables_from_order rebuilds from L's order."""
    n = L.n
    leq = [[L.leq_i(i, j) for j in range(n)] for i in range(n)]
    meet, join, *_ = oracle_tables_from_order(L.labels, leq)
    x = np.arange(n)[:, None, None]
    return bool((meet[x, join[None]] == join[meet[:, :, None], meet[:, None, :]]).all())


def oracle_is_modular(L):
    """Whether x <= z implies x v (y ^ z) = (x v y) ^ z for every triple,
    on the tables oracle_tables_from_order rebuilds from L's order."""
    n = L.n
    leq = np.array([[L.leq_i(i, j) for j in range(n)] for i in range(n)])
    meet, join, *_ = oracle_tables_from_order(L.labels, leq)
    x, y, z = np.arange(n)[:, None, None], np.arange(n)[None, :, None], np.arange(n)
    law = join[x, meet[y, z]] == meet[join[x, y], z]
    return bool((law | ~leq[:, None, :]).all())


def oracle_validate(labels, covers):
    """The former validate_lattice on distinct labels and known cover ends:
    the order closed by squaring the bool matrix, the first mutually
    comparable pair in row-major order as the cycle witness, then
    oracle_tables_from_order.  Returns (leq, tables)."""
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        if lo == hi:
            raise CycleDetected(f"self-loop at {lo!r}")
        leq[index[lo], index[hi]] = True
    while True:
        nxt = leq | (leq @ leq)
        if (nxt == leq).all():
            break
        leq = nxt
    strict = leq & ~np.eye(n, dtype=bool)
    if (strict & strict.T).any():
        i, j = map(int, next(zip(*np.nonzero(strict & strict.T))))
        raise CycleDetected(f"cycle through {labels[i]!r} and {labels[j]!r}")
    return leq, oracle_tables_from_order(labels, leq)


# --- the slow Con oracle: one closure per cover, then a join loop ---

def oracle_closure(L, seed_pairs):
    """Least congruence containing the seed pairs, as a canonical block_of.

    A pure-Python work queue: every merged pair is re-checked against all
    one-sided meets and joins until nothing new merges.
    """
    n = L.n
    cls = list(range(n))
    members = {i: [i] for i in range(n)}
    meet, join = L._meet.tolist(), L._join.tolist()
    queue = []

    def union(a, b):
        ra, rb = cls[a], cls[b]
        if ra == rb:
            return
        for m in members[rb]:
            cls[m] = ra
        members[ra].extend(members.pop(rb))
        queue.append((a, b))

    for a, b in seed_pairs:
        union(a, b)
    while queue:
        x, y = queue.pop()
        for table in (meet, join):
            for z in range(n):
                union(table[x][z], table[y][z])
    return canon_ids(cls)


def canon_ids(classes):
    """Class ids renumbered by first occurrence."""
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in classes)


def _seeds(block_of):
    first = {}
    return [(first.setdefault(k, i), i) for i, k in enumerate(block_of)]


def oracle_con(L):
    """Con L the slow way: the closures of all covers, closed under join by
    re-closing unions; order, tables, atoms and bounds read off the
    partitions.  Returns a dict of plain Python values."""
    zero = tuple(range(L.n))
    gens = {oracle_closure(L, [pair]) for pair in L.covers}
    found = {zero} | gens
    queue = list(gens)
    while queue:
        t = queue.pop()
        for g in gens:
            j = oracle_closure(L, _seeds(t) + _seeds(g))
            if j not in found:
                found.add(j)
                queue.append(j)
    cons = sorted(found, key=lambda bo: (L.n - len(set(bo)), bo))
    index = {bo: k for k, bo in enumerate(cons)}
    m = len(cons)

    def refines(s, t):
        return all(t[i] == t[j] for i, j in _seeds(s))

    leq = [[refines(s, t) for t in cons] for s in cons]
    meet = [[index[canon_ids(zip(s, t))] for t in cons] for s in cons]
    join = [[index[oracle_closure(L, _seeds(s) + _seeds(t))] for t in cons]
            for s in cons]
    bottom, top = index[zero], index[tuple([0] * L.n)]
    atoms = [k for k in range(m) if k != bottom
             and sum(leq[i][k] for i in range(m)) == 2]
    return {"cons": cons, "leq": leq, "meet": meet, "join": join,
            "atoms": atoms, "bottom": bottom, "top": top}


def oracle_conc_of_hom(f, con_source, con_target):
    """Conc f the slow way: each source congruence goes to the closure of
    the images of its pairs.  The congruences are oracle_con results."""
    index = {bo: k for k, bo in enumerate(con_target["cons"])}
    fm = f.mapping.tolist()
    return [index[oracle_closure(f.target, [(fm[a], fm[b]) for a, b in _seeds(bo)])]
            for bo in con_source["cons"]]


def oracle_join_preserving(con_source, con_target, mapping):
    """Whether mapping, from the indices of one oracle_con result to those
    of another, preserves binary joins: checked on all m^2 pairs."""
    js, jt = con_source["join"], con_target["join"]
    m = len(mapping)
    return all(jt[mapping[x]][mapping[y]] == mapping[js[x][y]]
               for x in range(m) for y in range(m))


def oracle_isomorphism(con_source, con_target, mapping):
    """Whether mapping is an order isomorphism between two oracle_con results."""
    ls, lt = con_source["leq"], con_target["leq"]
    m = len(mapping)
    return sorted(mapping) == list(range(len(lt))) and all(
        ls[x][y] == lt[mapping[x]][mapping[y]] for x in range(m) for y in range(m))


def oracle_si_quotients_json(K):
    """si_quotients(K) as JSON, from oracle_con: each congruence with one
    upper cover in canonical order, its quotient labelled by each block's
    least element, the monolith from the cover, and the first of each
    isomorphism class kept (isomorphism by permutations)."""
    con = oracle_con(K)
    cons, leq = con["cons"], con["leq"]
    m = len(cons)
    out, kept = [], []
    for k, theta in enumerate(cons):
        above = [c for c in range(m) if c != k and leq[k][c]]
        covers = [c for c in above if not any(d != c and leq[d][c] for d in above)]
        if len(covers) != 1:
            continue
        reps = [theta.index(b) for b in range(max(theta) + 1)]
        qleq = [[theta[K.join_i(a, b)] == theta[b] for b in reps] for a in reps]
        q = SimpleNamespace(n=len(reps), leq_i=lambda i, j, qleq=qleq: qleq[i][j])
        if any(brute_isomorphic(p, q) is not None for p in kept):
            continue
        kept.append(q)
        star = cons[covers[0]]
        mono = {}
        for qi, r in enumerate(reps):
            mono.setdefault(star[r], []).append(K.labels[r])
        blocks = {}
        for i, b in enumerate(theta):
            blocks.setdefault(b, []).append(K.labels[i])
        out.append({"theta": list(blocks.values()),
                    "elements": [K.labels[r] for r in reps],
                    "monolith": list(mono.values())})
    return out


def oracle_partition_join(a, b):
    """Join of two partitions given as class-id lists: repeat merging any two
    classes that share an element's class in a or in b until stable."""
    n = len(a)
    cls = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if (a[i] == a[j] or b[i] == b[j]) and cls[i] != cls[j]:
                    lo, hi = sorted((cls[i], cls[j]))
                    cls = [lo if c == hi else c for c in cls]
                    changed = True
    return canon_ids(cls)


# --- searches by filtering every candidate ---

def oracle_embed_partial(K, L):
    """The first injective map K -> L, in lexicographic order of the image
    sequences, that preserves every defined meet and join, as a label dict;
    None when there is none.  A bounded K sends its 0 to L's 0 and its 1 to
    L's 1."""
    for img in itertools.permutations(range(L.n), K.n):
        if K.bounded and (img[K.bottom_i] != L.bottom_i or img[K.top_i] != L.top_i):
            continue
        if all(img[k] == L.meet_i(img[i], img[j]) for (i, j), k in K.meets.items()) \
                and all(img[k] == L.join_i(img[i], img[j]) for (i, j), k in K.joins.items()):
            return {K.labels[i]: L.labels[c] for i, c in enumerate(img)}
    return None


def oracle_congruence_chains(B):
    """Every strict chain x0 < x1 < ... < xk of B whose step congruences
    Theta(x_t, x_t+1), closed by oracle_closure, are distinct atoms of Con B
    (from oracle_con) and use up all of them.  Returns a dict from the
    extremities' labels (x0, xk) to (labels, step block_ofs) pairs, ordered
    by the chains' index sequences."""
    con = oracle_con(B)
    atoms = {con["cons"][k] for k in con["atoms"]}
    closures = {}
    out = {}
    for r in range(1, B.n + 1):
        for path in itertools.permutations(range(B.n), r):
            steps = list(zip(path, path[1:]))
            if not all(B.leq_i(x, y) for x, y in steps):
                continue
            for p in steps:
                if p not in closures:
                    closures[p] = oracle_closure(B, [p])
            sigma = tuple(closures[p] for p in steps)
            if set(sigma) == atoms and len(sigma) == len(atoms):
                labels = tuple(B.labels[i] for i in path)
                out.setdefault((labels[0], labels[-1]), []).append((labels, sigma))
    return out


def oracle_direct_chains(L, xi, C):
    """The congruence chains of L between its bounds, from
    oracle_congruence_chains, each as (labels, step block_ofs, direct), in
    its order.  A chain is direct for (xi, the chain lattice C) when it has
    C's length and, for every step k, xi's target is hosted on C (the same
    labels and covers) and xi applied to the step's down-set (the members
    of J(Con) of xi's source whose pair the step's partition identifies)
    marks the members whose pair the oracle_closure partition of C's k-th
    step identifies.  Each chain is tested on its own, with nothing
    remembered."""
    order = sorted(range(C.n), key=lambda i: sum(C.leq_i(j, i) for j in range(C.n)))
    T = xi.target.host
    same = T is C or (T.labels == C.labels
                      and {tuple(c) for c in T.covers} == {tuple(c) for c in C.covers})

    def marked(J, block_of):
        return np.array([block_of[a] == block_of[b] for a, b in J.pairs], dtype=bool)

    def sends(k, step):
        if not same:
            return False
        image = xi.zero.copy()
        for j in np.nonzero(marked(xi.source, step))[0]:
            image |= xi.images[j]
        want = marked(xi.target, oracle_closure(C, [(order[k], order[k + 1])]))
        return np.array_equal(image, want)

    return [(labels, sigma, len(labels) == C.n and all(sends(k, s) for k, s in enumerate(sigma)))
            for labels, sigma in oracle_congruence_chains(L).get((L.bottom, L.top), [])]


# --- liftings, every check on its own ---

def _downset_rows(leq):
    """Every down-set of the poset with bool order matrix leq (leq[a, b]
    when a <= b), as the bool rows of one array, from all subsets."""
    rows = np.array(list(itertools.product((False, True), repeat=len(leq))),
                    dtype=bool).reshape(-1, len(leq))
    # a row is a down-set iff no member lies below one of its elements but
    # outside it
    return rows[~((rows.astype(int) @ leq.T.astype(int) > 0) & ~rows).any(axis=1)]


def oracle_xi_isomorphism(x):
    """Whether the ConcMap x is an isomorphism Con S -> Con T, over all
    down-sets of J(Con S) and J(Con T): x preserves joins, sends a down-set
    m to x.zero joined with the images of m's members, gives each down j its
    listed image, and so maps the down-sets of J(Con S) one-to-one onto
    those of J(Con T), keeping inclusion both ways."""
    if not x.join_preserving:
        return False
    src, tgt = _downset_rows(x.source.leq), _downset_rows(x.target.leq)

    def phi(m):
        out = x.zero.copy()
        for j in np.nonzero(m)[0]:
            out |= x.images[j]
        return out

    image = np.array([phi(m) for m in src], dtype=bool).reshape(len(src), len(x.zero))
    if any(not np.array_equal(phi(down), x.images[j]) for j, down in enumerate(x.source.leq.T)):
        return False
    found = {m.tobytes() for m in image}
    if len(found) != len(src) or found != {m.tobytes() for m in tgt}:
        return False

    def inclusions(rows):
        return (rows.astype(int) @ (~rows).T.astype(int)) == 0
    return bool((inclusions(src) == inclusions(image)).all())


def _same_or_dual_oracle(A, B):
    covers = {tuple(c) for c in A.covers}
    return A.labels == B.labels and {tuple(c) for c in B.covers} in (
        covers, {(j, i) for i, j in covers})


def oracle_verify_lifting(lift):
    """The failures verify_lifting reports, in its order but uncapped, with
    nothing shared: each xi checked by oracle_xi_isomorphism, and each
    square by building both composites, Conc of its edge computed afresh
    (conc_of_hom, no memo)."""
    B, S, xi = lift.source, lift.target, lift.xi
    failures = []
    for p in B.poset.elements:
        x = xi.get(p)
        if x is None:
            failures.append(("missing-xi", p))
        elif len(x.target.leq) != len(S.J[p].leq):
            failures.append(("xi-wrong-shape", p))
        elif not oracle_xi_isomorphism(x):
            failures.append(("xi-not-iso", p))
    if not failures:
        failures = [("xi-wrong-shape", p) for p in B.poset.elements
                    if not _same_or_dual_oracle(xi[p].source.host, B.lattices[p])]
    if not failures:
        for (p, q) in B.poset.pairs():
            s = S.maps.get((p, q))
            cf = conc_of_hom(B.maps[(p, q)], xi[p].source, xi[q].source)
            if s is None or not xi[q].compose(cf).equal_map(s.compose(xi[p])):
                failures.append(("naturality", p, q))
    return failures
