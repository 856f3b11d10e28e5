/* C kernels of the hash-join incidence engine, of max_collinear_3d and of
 * the Beck and distance reports.
 *
 * incidence.py compiles this file on first use and calls it through ctypes.
 * p is a prime below 2^31.
 *
 * The probe kernels read two sorted key columns of an instance, the items
 * and the probes.  An item key decodes to (a, b) = divmod(key, p) and a
 * probe key to (g, v); the probes with equal g form a group.  On the slope
 * side the items are the points (x, y) and the probes the non-vertical
 * lines (s, t), and the group key is s = g; on the column side the items
 * are the non-vertical lines and the probes the points, and the group key
 * is s = p - g, since y = s'x + t <=> t - (-x)s' = y (mod p).  probe counts
 * the pairs (item, probe) with
 *
 *     b - s * a = v  (mod p),
 *
 * or adds each to its item's and its probe's degree, along one of three
 * paths, chosen per group by its size:
 *
 * flat (groups of at most FLAT_MAX probes): each tile of items is decoded
 * once into L1 arrays, and each probe once per tile into registers, BLOCK
 * probes at a time.  As s <= p, the difference u = s*a + v + p - b lies in
 * [1, 2^63), and p divides u exactly when u * p^-1 mod 2^64 <=
 * (2^64 - 1) / p (Granlund & Montgomery 1994; Lemire, Kaser & Kurz,
 * arXiv:1902.01961).  Multiplication by p^-1 is a ring map mod 2^64, so
 * u * p^-1 = s*(a*p^-1) + (v+p)*p^-1 - b*p^-1 with wrapping arithmetic: one
 * multiply per pair, no division.  For degrees a block with a hit is tested
 * a second time, to place its hits.
 *
 * bitmap (larger groups with 64*size >= p): the group's values are set in
 * a bitmap of p bits, ceil(p/64) <= size words, allocated at the first such
 * group and cleared again before the next group.
 *
 * binary search (the other groups): a branchless binary search for
 * g*p + r among the group's own keys, so the probes are never decoded.
 *
 * On both of these paths the items are walked in key order, and s*a mod p
 * is computed once per run of equal a, that is once per column of points
 * or per slope class of lines; an item's residue r = (b - s*a) mod p is then
 * a subtraction and a conditional add.
 *
 * collinear: how many points of a set in F_p^3 lie on each line, as a
 * histogram of runs.  For each anchor point the directions to all later
 * points are scaled so their first nonzero coordinate is 1, with one batched
 * inverse (Montgomery, Math. Comp. 48, 1987: prefix products, one Fermat
 * inverse, back-substitution), and equal directions are counted in an
 * open-addressing hash table.  A line with k points shows up as runs of
 * 1 .. k - 1 later points, one from each of its points but the last, so the
 * histogram gives both the largest k (max_collinear_3d) and the number of
 * lines with exactly k points (determined_lines, with the plane's points as
 * (x, y, 0)).
 *
 * pinned: the distance report.  For each pin q the squared distances
 * d(q, r) to all points r are counted in a hash table, which gives the size
 * of the pinned set and the isosceles pairs at q, and the distances to the
 * later points go into one growing hash set, the distance set.  Memory is
 * O(m) plus the distance set: no pair block is built.
 *
 * Reduction.  reduce(u) = u mod p for every u < 2^63, by Barrett's method
 * with M = floor((2^64 - 1) / p).  Write p*M = 2^64 - 1 - e with 0 <= e < p.
 * Then u*M / 2^64 = u/p - u*(1 + e) / (p * 2^64), and as u < 2^63 and
 * 1 + e <= p the subtracted term is below 1/2.  So the quotient estimate
 * q = floor(u*M / 2^64) satisfies u/p - 3/2 < q <= u/p, that is
 * floor(u/p) - 1 <= q <= floor(u/p), and u - q*p lies in [0, 2p): one
 * conditional subtraction makes it exact, and quotient(u) = floor(u/p) is
 * q plus one correction.  Every key is below p^2 + p < 2^62, and every
 * other reduced quantity is a product of two numbers up to p, or in pinned
 * the sum of two squares of numbers below p, which is below 2^63.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* items per tile: a tile's a*p^-1 and b*p^-1 (32 KiB) stay in L1 */
#define TILE 2048
/* probes held in registers while a tile streams past */
#define BLOCK 8
/* groups with at most this many probes are cheaper as independent probes in
 * the blocked flat loop than as binary searches */
#define FLAT_MAX 32

static inline uint64_t reduce(uint64_t u, uint64_t p, uint64_t m)
{
    const uint64_t q = (uint64_t)(((unsigned __int128)u * m) >> 64);
    const uint64_t r = u - q * p;
    return r >= p ? r - p : r;
}

static inline uint64_t quotient(uint64_t u, uint64_t p, uint64_t m)
{
    const uint64_t q = (uint64_t)(((unsigned __int128)u * m) >> 64);
    return q + (u - q * p >= p);
}

static uint64_t inverse_mod_2_64(uint64_t p)
{
    /* Newton's iteration doubles the correct low bits: p*p = 1 mod 8 */
    uint64_t x = p;
    for (int k = 0; k < 5; k++)
        x *= 2 - p * x;
    return x;
}

/* branchless lower bound: the first of the n >= 1 ascending keys at first
 * that is at least key, or n */
static inline int64_t lower_bound(const int64_t *first, int64_t n, int64_t key)
{
    const int64_t *base = first, *end = first + n;
    while (n > 1) {
        const int64_t half = n / 2;
        base = base[half] < key ? base + half : base;
        n -= half;
    }
    base += base < end && *base < key;
    return base - first;
}

/* the end of the group that starts at keys[j], below hi = (g + 1) * p:
 * groups of at most FLAT_MAX keys are scanned, longer ones searched */
static inline int64_t group_end(const int64_t *keys, int64_t j, int64_t n, int64_t hi)
{
    if (j + FLAT_MAX < n && keys[j + FLAT_MAX] < hi)
        return j + FLAT_MAX + lower_bound(keys + j + FLAT_MAX, n - j - FLAT_MAX, hi);
    while (++j < n && keys[j] < hi)
        ;
    return j;
}

/* the hits of the k probes (s, c) against a tile; with per_item, a block
 * with a hit is tested again to add them to per_item and per_probe[at[q]] */
static inline uint64_t block_hits(const uint64_t *ta, const uint64_t *tb, int64_t len, const uint64_t *s,
                                  const uint64_t *c, const int64_t *at, int k, uint64_t lim, int64_t i0,
                                  int64_t *per_item, int64_t *per_probe)
{
    uint64_t hits = 0;
    for (int64_t i = 0; i < len; i++)
        for (int q = 0; q < k; q++)
            hits += s[q] * ta[i] + c[q] - tb[i] <= lim;
    for (int64_t i = 0; per_item != NULL && hits && i < len; i++)
        for (int q = 0; q < k; q++)
            if (s[q] * ta[i] + c[q] - tb[i] <= lim) {
                per_item[i0 + i]++;
                per_probe[at[q]]++;
            }
    return hits;
}

static int64_t flat(const int64_t *items, int64_t n_items, const int64_t *probes, int64_t n_probes,
                    uint64_t p, uint64_t m, int64_t column, int64_t *per_item, int64_t *per_probe)
{
    const uint64_t inv = inverse_mod_2_64(p), lim = UINT64_MAX / p;
    uint64_t ta[TILE], tb[TILE];
    int64_t total = 0;
    for (int64_t i0 = 0; i0 < n_items; i0 += TILE) {
        const int64_t len = n_items - i0 < TILE ? n_items - i0 : TILE;
        for (int64_t i = 0; i < len; i++) {
            const uint64_t key = (uint64_t)items[i0 + i], a = quotient(key, p, m);
            ta[i] = a * inv;
            tb[i] = (key - a * p) * inv;
        }
        uint64_t s[BLOCK], c[BLOCK], hits = 0;
        int64_t at[BLOCK];
        int k = 0;
        for (int64_t j = 0, end; j < n_probes; j = end) {
            const uint64_t g = quotient((uint64_t)probes[j], p, m);
            end = group_end(probes, j, n_probes, (int64_t)((g + 1) * p));
            if (end - j > FLAT_MAX)
                continue;
            for (; j < end; j++) {
                s[k] = column ? p - g : g;
                c[k] = ((uint64_t)probes[j] - g * p + p) * inv;
                at[k] = j;
                if (++k < BLOCK)
                    continue;
                k = 0;
                hits += block_hits(ta, tb, len, s, c, at, BLOCK, lim, i0, per_item, per_probe);
            }
        }
        total += (int64_t)(hits + block_hits(ta, tb, len, s, c, at, k, lim, i0, per_item, per_probe));
    }
    return total;
}

static inline __attribute__((always_inline)) int64_t join(const int64_t *items, int64_t n_items,
    const int64_t *probes, int64_t n_probes, int64_t p, int64_t column, int64_t *per_item, int64_t *per_probe,
    int64_t *paths)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    int64_t total = flat(items, n_items, probes, n_probes, up, m, column, per_item, per_probe);
    uint64_t *bits = NULL;
    for (int64_t j = 0, end; j < n_probes; j = end) {
        const uint64_t g = quotient((uint64_t)probes[j], up, m), s = column ? up - g : g;
        const int64_t base = (int64_t)(g * up), *group = probes + j;
        end = group_end(probes, j, n_probes, base + p);
        const int64_t size = end - j;
        if (size <= FLAT_MAX) {
            paths[0] += size;
            continue;
        }
        const int bitmap = 64 * size >= p;
        paths[bitmap ? 1 : 2]++;
        if (bitmap && bits == NULL && (bits = calloc((size_t)(p + 63) / 64, sizeof *bits)) == NULL)
            return -1;
        for (int64_t k = 0; bitmap && k < size; k++)
            bits[(group[k] - base) >> 6] |= (uint64_t)1 << ((group[k] - base) & 63);
        /* the items with key in [run, run + p) share a; key - off is the
         * residue (b - s*a) mod p, or it minus p */
        int64_t run = -p, off = 0;
        uint64_t hits = 0;
        for (int64_t i = 0; i < n_items; i++) {
            if (items[i] >= run + p) {
                const uint64_t a = quotient((uint64_t)items[i], up, m);
                run = (int64_t)(a * up);
                off = run + (int64_t)reduce(s * a, up, m);
            }
            int64_t r = items[i] - off;
            r += r < 0 ? p : 0;
            const int64_t at = bitmap ? 0 : lower_bound(group, size, base + r);
            const uint64_t hit = bitmap ? bits[r >> 6] >> (r & 63) & 1 : at < size && group[at] == base + r;
            hits += hit;
            if (per_item != NULL && hit) {
                per_item[i]++;
                per_probe[j + (bitmap ? lower_bound(group, size, base + r) : at)]++;
            }
        }
        total += (int64_t)hits;
        /* every set bit belongs to a value of this group */
        for (int64_t k = 0; bitmap && k < size; k++)
            bits[(group[k] - base) >> 6] = 0;
    }
    free(bits);
    return total;
}

/* items, probes: sorted key columns; column: nonzero on the column side.
 * per_item, per_probe: degree arrays of n_items and n_probes, or both NULL
 * for a bare count, which runs its own always-inlined join with no degree test.
 * paths receives the flat probes, the bitmap groups and the searched groups;
 * all three arrays come zeroed.  Returns the number of hits, or -1 when the
 * bitmap cannot be allocated. */
int64_t probe(const int64_t *items, int64_t n_items, const int64_t *probes, int64_t n_probes,
              int64_t p, int64_t column, int64_t *per_item, int64_t *per_probe, int64_t *paths)
{
    return per_item != NULL ? join(items, n_items, probes, n_probes, p, column, per_item, per_probe, paths)
                            : join(items, n_items, probes, n_probes, p, column, NULL, NULL, paths);
}

static uint64_t power(uint64_t x, uint64_t e, uint64_t p, uint64_t m)
{
    uint64_t out = 1;
    for (; e; e >>= 1) {
        if (e & 1)
            out = reduce(out * x, p, m);
        x = reduce(x * x, p, m);
    }
    return out;
}

static inline uint64_t diff(int64_t x, int64_t x0, uint64_t p)
{
    return x >= x0 ? (uint64_t)(x - x0) : (uint64_t)(x - x0) + p;
}

/* pts: r >= 1 distinct points (x, y, z), row by row.  runs: r zeroed
 * counts, of which runs[c] receives the number of (anchor, direction) pairs
 * that hold exactly c later points; a line with k points gives one pair for
 * each c in 1 .. k - 1, from each of its points but the last.  Returns 0, or
 * -1 when scratch memory cannot be allocated. */
int64_t collinear(const int64_t *pts, int64_t r, int64_t p, int64_t *runs)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    int log_cap = 1;
    while (((int64_t)1 << log_cap) < 2 * r)
        log_cap++;
    uint64_t *lead = malloc((size_t)r * sizeof *lead);
    uint64_t *pre = malloc((size_t)r * sizeof *pre);
    uint64_t *slot_key = malloc(((size_t)1 << log_cap) * sizeof *slot_key);
    int64_t *slot_count = malloc(((size_t)1 << log_cap) * sizeof *slot_count);
    const int64_t status = lead && pre && slot_key && slot_count ? 0 : -1;
    for (int64_t i = 0; status == 0 && i + 1 < r; i++) {
        const int64_t *o = pts + 3 * i, *q = o + 3;
        const int64_t n = r - 1 - i;
        /* lead[k]: first nonzero coordinate of the k-th direction;
         * pre[k]: the product of the leads before it */
        uint64_t acc = 1;
        for (int64_t k = 0; k < n; k++) {
            const uint64_t u = diff(q[3 * k], o[0], up), v = diff(q[3 * k + 1], o[1], up);
            lead[k] = u ? u : v ? v : diff(q[3 * k + 2], o[2], up);
            pre[k] = acc;
            acc = reduce(acc * lead[k], up, m);
        }
        /* 2^t >= 2n slots, at most half of them filled; UINT64_MAX is no key */
        int t = 1;
        while (((int64_t)1 << t) < 2 * n)
            t++;
        const int shift = 64 - t;
        const uint64_t mask = ((uint64_t)1 << t) - 1;
        memset(slot_key, 0xff, (mask + 1) * sizeof *slot_key);
        /* inv: the inverse of the product of the leads 0..k, so that
         * scale = inv * pre[k] is the inverse of lead[k] */
        uint64_t inv = power(acc, up - 2, up, m);
        for (int64_t k = n - 1; k >= 0; k--) {
            const uint64_t scale = reduce(inv * pre[k], up, m);
            inv = reduce(inv * lead[k], up, m);
            const uint64_t u = diff(q[3 * k], o[0], up), v = diff(q[3 * k + 1], o[1], up);
            const uint64_t w = reduce(diff(q[3 * k + 2], o[2], up) * scale, up, m);
            /* (1, v', w') -> v'*p + w'; (0, 1, w') -> p*p + w'; (0, 0, 1) -> p*p + p */
            const uint64_t key = u ? reduce(v * scale, up, m) * up + w : up * up + (v ? w : up);
            uint64_t h = (key * UINT64_C(0x9E3779B97F4A7C15)) >> shift;
            while (slot_key[h] != key && slot_key[h] != UINT64_MAX)
                h = (h + 1) & mask;
            if (slot_key[h] == UINT64_MAX) {
                slot_key[h] = key;
                slot_count[h] = 0;
            }
            /* runs[c] counts the pairs with at least c later points */
            runs[++slot_count[h]]++;
        }
    }
    /* ... and then those with exactly c */
    for (int64_t c = 1; status == 0 && c + 1 < r; c++)
        runs[c] -= runs[c + 1];
    free(lead);
    free(pre);
    free(slot_key);
    free(slot_count);
    return status;
}

/* distinct values below 2^31 in an open-addressing table of 2^t slots;
 * FREE marks an empty slot */
#define FREE UINT32_MAX
/* values between the prefetch of a slot of the distance set and its use */
#define AHEAD 16

static inline uint64_t slot(uint32_t value, int t)
{
    return ((uint64_t)value * UINT64_C(0x9E3779B97F4A7C15)) >> (64 - t);
}

/* the slot of value in table, or the free slot where it goes */
static inline uint64_t find(const uint32_t *table, int t, uint32_t value)
{
    const uint64_t mask = ((uint64_t)1 << t) - 1;
    uint64_t h = slot(value, t);
    while (table[h] != value && table[h] != FREE)
        h = (h + 1) & mask;
    return h;
}

/* insert value into the set of 2^*t slots holding *n values, doubling the
 * slots when they are three quarters full; -1 when the larger table cannot
 * be allocated */
static int insert(uint32_t **set, int *t, int64_t *n, uint32_t value)
{
    const uint64_t s = find(*set, *t, value);
    if ((*set)[s] != FREE)
        return 0;
    (*set)[s] = value;
    if (4 * ++*n <= 3 * ((int64_t)1 << *t))
        return 0;
    uint32_t *grown = malloc(((size_t)2 << *t) * sizeof *grown);
    if (grown == NULL)
        return -1;
    memset(grown, 0xff, ((size_t)2 << *t) * sizeof *grown);
    for (uint64_t k = 0; k < (uint64_t)1 << *t; k++)
        if ((*set)[k] != FREE)
            grown[find(grown, *t + 1, (*set)[k])] = (*set)[k];
    free(*set);
    *set = grown;
    ++*t;
    return 0;
}

/* keys: m >= 1 ascending point keys x*p + y.  For each pin q the squared
 * distances d(q, r) = (x_q - x_r)^2 + (y_q - y_r)^2 mod p to all points r,
 * q itself included, are counted in a hash table of 2^t >= 2m slots:
 * sizes[q] receives the number of distinct values, the size of the pinned
 * set, and *isosceles the sum of c*(c - 1) over the counts c of the nonzero
 * values.  0 and the values d(q, r), r > q, gather in a set that grows as
 * it fills.  At the end out(n) returns an array of n int64 that receives
 * the set's n values, unsorted.  Returns n, or -1 when memory cannot be
 * allocated or out returns NULL. */
int64_t pinned(const int64_t *keys, int64_t m, int64_t p, int64_t *sizes, int64_t *isosceles,
               int64_t *(*out)(int64_t))
{
    const uint64_t up = (uint64_t)p, mp = UINT64_MAX / up;
    int t = 1, set_t = 10;
    while (((int64_t)1 << t) < 2 * m)
        t++;
    uint64_t *x = malloc((size_t)m * sizeof *x), *y = malloc((size_t)m * sizeof *y);
    uint32_t *row = malloc(((size_t)1 << t) * sizeof *row), *count = malloc(((size_t)1 << t) * sizeof *count);
    uint32_t *used = malloc((size_t)m * sizeof *used), *dist = malloc((size_t)m * sizeof *dist);
    uint32_t *set = malloc(((size_t)1 << set_t) * sizeof *set);
    int64_t n = 0, status = x && y && row && count && used && dist && set ? 0 : -1;
    for (int64_t i = 0; status == 0 && i < m; i++) {
        x[i] = quotient((uint64_t)keys[i], up, mp);
        y[i] = (uint64_t)keys[i] - x[i] * up;
    }
    if (status == 0) {
        memset(row, 0xff, ((size_t)1 << t) * sizeof *row);
        memset(set, 0xff, ((size_t)1 << set_t) * sizeof *set);
        status = insert(&set, &set_t, &n, 0);
    }
    *isosceles = 0;
    for (int64_t q = 0; status == 0 && q < m; q++) {
        int64_t held = 0;
        for (int64_t r = 0; r < m; r++) {
            const uint64_t dx = x[q] > x[r] ? x[q] - x[r] : x[r] - x[q];
            const uint64_t dy = y[q] > y[r] ? y[q] - y[r] : y[r] - y[q];
            /* dx, dy < 2^31, so the sum stays below 2^63 */
            const uint32_t d = dist[r] = (uint32_t)reduce(dx * dx + dy * dy, up, mp);
            const uint64_t h = find(row, t, d);
            if (row[h] == FREE) {
                row[h] = d;
                count[h] = 0;
                used[held++] = (uint32_t)h;
            }
            count[h]++;
        }
        /* a large set misses the cache: fetch a slot AHEAD values early */
        for (int64_t r = q + 1; status == 0 && r < m; r++) {
            if (r + AHEAD < m)
                __builtin_prefetch(set + slot(dist[r + AHEAD], set_t));
            status = insert(&set, &set_t, &n, dist[r]);
        }
        sizes[q] = held;
        for (int64_t k = 0; k < held; k++) {
            const uint64_t c = count[used[k]];
            *isosceles += row[used[k]] ? (int64_t)(c * (c - 1)) : 0;
            row[used[k]] = FREE;
        }
    }
    /* the values move to the front of the set, which shrinks to them
     * before out allocates their copy */
    for (uint64_t k = 0, j = 0; status == 0 && k < (uint64_t)1 << set_t; k++)
        if (set[k] != FREE)
            set[j++] = set[k];
    uint32_t *kept = status == 0 ? realloc(set, (size_t)n * sizeof *set) : NULL;
    set = kept != NULL ? kept : set;
    int64_t *values = status == 0 ? out(n) : NULL;
    for (int64_t j = 0; values != NULL && j < n; j++)
        values[j] = set[j];
    free(x);
    free(y);
    free(row);
    free(count);
    free(used);
    free(dist);
    free(set);
    return values != NULL ? n : -1;
}
