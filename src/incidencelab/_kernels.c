/* C kernels of the hash-join incidence engine and of max_collinear_3d.
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
 *     b - s * a = v  (mod p)
 *
 * along one of three paths, chosen per group by its size:
 *
 * flat (groups of at most FLAT_MAX probes): each tile of items is decoded
 * once into L1 arrays, and each probe once per tile into registers, BLOCK
 * probes at a time.  As s <= p, the difference u = s*a + v + p - b lies in
 * [1, 2^63), and p divides u exactly when u * p^-1 mod 2^64 <=
 * (2^64 - 1) / p (Granlund & Montgomery 1994; Lemire, Kaser & Kurz,
 * arXiv:1902.01961).  Multiplication by p^-1 is a ring map mod 2^64, so
 * u * p^-1 = s*(a*p^-1) + (v+p)*p^-1 - b*p^-1 with wrapping arithmetic: one
 * multiply per pair, no division.
 *
 * bitmap (larger groups with 64*size >= p, given a scratch bitmap): the
 * group's values are set in a bitmap of p bits, ceil(p/64) <= size words,
 * and cleared again before the next group.
 *
 * binary search (the other groups): a branchless binary search for
 * g*p + r among the group's own keys, so the probes are never decoded.
 *
 * On both of these paths the items are walked in key order, and s*a mod p
 * is computed once per run of equal a, that is once per column of points
 * or per slope class of lines; an item's residue r = (b - s*a) mod p is then
 * a subtraction and a conditional add.
 *
 * plan prices a side: it counts the groups of a key column and the probes
 * and groups of each path, with the same rule.
 *
 * collinear: the largest number of points of a set in F_p^3 on one line.
 * For each anchor point the directions to all later points are scaled so
 * their first nonzero coordinate is 1, with one batched inverse
 * (Montgomery, Math. Comp. 48, 1987: prefix products, one Fermat inverse,
 * back-substitution), and equal directions are counted in an
 * open-addressing hash table.
 *
 * Reduction.  reduce(u) = u mod p for every u < 2^63, by Barrett's method
 * with M = floor((2^64 - 1) / p).  Write p*M = 2^64 - 1 - e with 0 <= e < p.
 * Then u*M / 2^64 = u/p - u*(1 + e) / (p * 2^64), and as u < 2^63 and
 * 1 + e <= p the subtracted term is below 1/2.  So the quotient estimate
 * q = floor(u*M / 2^64) satisfies u/p - 3/2 < q <= u/p, that is
 * floor(u/p) - 1 <= q <= floor(u/p), and u - q*p lies in [0, 2p): one
 * conditional subtraction makes it exact, and quotient(u) = floor(u/p) is
 * q plus one correction.  Every key is below p^2 + p < 2^62, and every
 * other reduced quantity is a product of two numbers up to p.
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

/* out: the groups of the n sorted keys, the probes of its flat groups, and
 * its groups on the bitmap and on the binary-search path */
void plan(const int64_t *keys, int64_t n, int64_t p, int64_t *out)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    out[0] = out[1] = out[2] = out[3] = 0;
    for (int64_t j = 0, end; j < n; j = end) {
        end = group_end(keys, j, n, (int64_t)((quotient((uint64_t)keys[j], up, m) + 1) * up));
        out[0]++;
        if (end - j <= FLAT_MAX)
            out[1] += end - j;
        else
            out[64 * (end - j) >= p ? 2 : 3]++;
    }
}

static int64_t flat(const int64_t *items, int64_t n_items, const int64_t *probes, int64_t n_probes,
                    uint64_t p, uint64_t m, int64_t column)
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
        int k = 0;
        for (int64_t j = 0, end; j < n_probes; j = end) {
            const uint64_t g = quotient((uint64_t)probes[j], p, m);
            end = group_end(probes, j, n_probes, (int64_t)((g + 1) * p));
            if (end - j > FLAT_MAX)
                continue;
            for (; j < end; j++) {
                s[k] = column ? p - g : g;
                c[k] = ((uint64_t)probes[j] - g * p + p) * inv;
                if (++k < BLOCK)
                    continue;
                k = 0;
                for (int64_t i = 0; i < len; i++)
                    for (int q = 0; q < BLOCK; q++)
                        hits += s[q] * ta[i] + c[q] - tb[i] <= lim;
            }
        }
        for (int q = 0; q < k; q++)
            for (int64_t i = 0; i < len; i++)
                hits += s[q] * ta[i] + c[q] - tb[i] <= lim;
        total += (int64_t)hits;
    }
    return total;
}

/* items, probes: sorted key columns; column: nonzero on the column side.
 * bits: a zeroed scratch bitmap of ceil(p/64) words, or NULL, when every
 * group past FLAT_MAX goes to the binary search; it is zeroed again on
 * return */
int64_t probe(const int64_t *items, int64_t n_items, const int64_t *probes, int64_t n_probes,
              int64_t p, int64_t column, uint64_t *bits)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    int64_t total = flat(items, n_items, probes, n_probes, up, m, column);
    for (int64_t j = 0, end; j < n_probes; j = end) {
        const uint64_t g = quotient((uint64_t)probes[j], up, m), s = column ? up - g : g;
        const int64_t base = (int64_t)(g * up), *group = probes + j;
        end = group_end(probes, j, n_probes, base + p);
        const int64_t size = end - j;
        if (size <= FLAT_MAX)
            continue;
        const int bitmap = bits != NULL && 64 * size >= p;
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
            if (bitmap) {
                hits += bits[r >> 6] >> (r & 63) & 1;
            } else {
                const int64_t at = lower_bound(group, size, base + r);
                hits += at < size && group[at] == base + r;
            }
        }
        total += (int64_t)hits;
        /* every set bit belongs to a value of this group */
        for (int64_t k = 0; bitmap && k < size; k++)
            bits[(group[k] - base) >> 6] = 0;
    }
    return total;
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

/* pts: r >= 1 distinct points (x, y, z), row by row.  Returns the maximum
 * number of them on one line, or -1 when scratch memory cannot be
 * allocated. */
int64_t collinear(const int64_t *pts, int64_t r, int64_t p)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    int log_cap = 1;
    while (((int64_t)1 << log_cap) < 2 * r)
        log_cap++;
    uint64_t *lead = malloc((size_t)r * sizeof *lead);
    uint64_t *pre = malloc((size_t)r * sizeof *pre);
    uint64_t *slot_key = malloc(((size_t)1 << log_cap) * sizeof *slot_key);
    int64_t *slot_count = malloc(((size_t)1 << log_cap) * sizeof *slot_count);
    int64_t best = -1;
    if (lead && pre && slot_key && slot_count) {
        best = 1;
        /* a line through anchor i holds at most r - i of the points i.. */
        for (int64_t i = 0; i + best < r; i++) {
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
                if (++slot_count[h] + 1 > best)
                    best = slot_count[h] + 1;
            }
        }
    }
    free(lead);
    free(pre);
    free(slot_key);
    free(slot_count);
    return best;
}
