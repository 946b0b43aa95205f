"""Reference order theory used to check critlat's answers.

Nothing here calls critlat.  A lattice is given by its labels and its order,
either from the shape's definition or as the reflexive-transitive closure of
its cover pairs; meets and joins are read off the order by brute force.
Every answer check in the benchmark goes through these functions, so a wrong
table or witness inside critlat cannot vouch for itself.
"""

from __future__ import annotations

import numpy as np


class WrongAnswer(Exception):
    """critlat returned an answer that the reference check rejects."""


class Order:
    """A finite poset on labelled elements; le[i, j] says labels[i] <= labels[j]."""

    def __init__(self, labels, le):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.le = le

    @classmethod
    def from_covers(cls, labels, covers):
        """The reflexive-transitive closure of the cover pairs."""
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(index)
        up = [[] for _ in range(n)]
        for lo, hi in covers:
            up[index[lo]].append(index[hi])
        le = np.zeros((n, n), dtype=bool)
        for start in range(n):
            row = le[start]
            row[start] = True
            stack = [start]
            while stack:
                for v in up[stack.pop()]:
                    if not row[v]:
                        row[v] = True
                        stack.append(v)
        return cls(labels, le)

    @property
    def n(self):
        return len(self.labels)

    def dual(self):
        return Order(self.labels, self.le.T.copy())

    def meet_rows(self, rows):
        """meet[i, j] for i in rows and every j, as index arrays; raises
        WrongAnswer if some pair has no greatest lower bound."""
        le = self.le
        weight = le.sum(axis=0)[:, None] + 1      # down-set sizes, shifted off 0
        cols = np.arange(self.n)
        out = np.empty((len(rows), self.n), dtype=np.int64)
        for r, i in enumerate(rows):
            common = le[:, i][:, None] & le          # common[k, j]: k <= i, k <= j
            best = np.argmax(common * weight, axis=0)
            # the candidate must be a common lower bound above all the others
            if not (common[best, cols].all() and (le[:, best] >= common).all()):
                raise WrongAnswer(f"{self.labels[i]} has no meet with some element")
            out[r] = best
        return out

    def meet_table(self):
        return self.meet_rows(range(self.n))

    def join_table(self):
        return self.dual().meet_table()

    def covers(self):
        """The covering pairs, as a set of label pairs."""
        lt = (self.le & ~np.eye(self.n, dtype=bool)).astype(np.float32)
        cov = (lt > 0) & ~((lt @ lt) > 0)
        return {(self.labels[i], self.labels[j]) for i, j in zip(*np.nonzero(cov))}


def lattice_order(L):
    """Reference order of a critlat lattice, taken from its labels and covers."""
    return Order.from_covers(L.labels, [(L.labels[i], L.labels[j]) for i, j in L.covers])


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def check_order_iso(src: Order, tgt: Order, mapping: dict, what="isomorphism"):
    """mapping (label -> label) is a bijection src -> tgt preserving and
    reflecting the order."""
    expect(set(mapping) == set(src.labels), f"{what}: domain is not the whole source")
    image = [tgt.index.get(mapping[lab], -1) for lab in src.labels]
    expect(-1 not in image, f"{what}: image leaves the target")
    expect(sorted(image) == list(range(tgt.n)), f"{what}: not a bijection")
    phi = np.array(image)
    expect((tgt.le[np.ix_(phi, phi)] == src.le).all(),
           f"{what}: order not preserved in both directions")


TABLE_ROWS = 24   # meet and join rows checked per lattice


def check_same_lattice(L, ref: Order):
    """L has exactly the reference labels and covers, and its meet and join
    tables agree with the reference on TABLE_ROWS evenly spread rows."""
    expect(set(L.labels) == set(ref.labels) and L.n == ref.n, "labels differ")
    got = {(L.labels[i], L.labels[j]) for i, j in L.covers}
    expect(got == ref.covers(), "covers differ")
    pos = np.array([ref.index[lab] for lab in L.labels])
    rows = list(range(0, L.n, max(1, L.n // TABLE_ROWS)))
    meets = ref.meet_rows(pos[rows])
    joins = ref.dual().meet_rows(pos[rows])
    for r, i in enumerate(rows):
        expect((pos[np.asarray(L.meet_row(i))] == meets[r, pos]).all(),
               f"meet row of {L.labels[i]} is wrong")
        expect((pos[np.asarray(L.join_row(i))] == joins[r, pos]).all(),
               f"join row of {L.labels[i]} is wrong")


def check_hs_witness(ambient: Order, w, m_order: Order):
    """Replay an HSWitness: its sublattice S is closed in the ambient lattice,
    theta is a congruence of S, and S/theta -> M is an order isomorphism."""
    meet, join = ambient.meet_table(), ambient.join_table()
    s = [ambient.index[lab] for lab in w.sublattice.labels]
    sset = set(s)
    for a in s:
        for b in s:
            expect(int(meet[a, b]) in sset and int(join[a, b]) in sset,
                   "HS witness: sublattice not closed")
    blocks = [[ambient.index[lab] for lab in blk] for blk in w.theta.label_blocks()]
    block_of = {}
    for k, blk in enumerate(blocks):
        for x in blk:
            expect(x not in block_of, "HS witness: blocks overlap")
            block_of[x] = k
    expect(set(block_of) == sset, "HS witness: blocks do not cover the sublattice")
    for blk in blocks:
        for x in blk[1:]:
            for c in s:
                for table in (meet, join):
                    expect(block_of[int(table[blk[0], c])] == block_of[int(table[x, c])],
                           "HS witness: theta is not a congruence")
    # S/theta ordered by A <= B iff a v b lies in B; the iso is keyed by the
    # label of one element of each block
    iso = w.iso.as_label_dict()
    quotient_labels = list(iso)
    expect(len(quotient_labels) == len(blocks), "HS witness: iso misses a block")
    rep_block = [block_of[ambient.index[lab]] for lab in quotient_labels]
    expect(sorted(rep_block) == list(range(len(blocks))),
           "HS witness: iso keys do not pick one element per block")
    reps = [blocks[k][0] for k in rep_block]
    le_q = np.array([[block_of[int(join[a, b])] == kb for b, kb in zip(reps, rep_block)]
                     for a in reps])
    check_order_iso(Order(quotient_labels, le_q), m_order, iso, "HS witness iso")


def check_embedding(h: dict, src: Order, tgt: Order):
    """h is injective and preserves every meet and join of the source."""
    expect(len(set(h.values())) == len(h) == src.n, "embedding is not injective")
    sm, sj = src.meet_table(), src.join_table()
    tm, tj = tgt.meet_table(), tgt.join_table()
    img = np.array([tgt.index[h[lab]] for lab in src.labels])
    expect((img[sm] == tm[np.ix_(img, img)]).all(), "embedding breaks a meet")
    expect((img[sj] == tj[np.ix_(img, img)]).all(), "embedding breaks a join")
