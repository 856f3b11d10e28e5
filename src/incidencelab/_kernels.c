/* C kernels of the hash-join incidence engine and of max_collinear_3d.
 *
 * incidence.py compiles this file on first use and calls it through ctypes.
 * Every input is a residue in [0, p) and p is a prime below 2^31.
 *
 * The probe kernels count pairs (item i, probe) with
 *
 *     b[i] - key * a[i] = val  (mod p)
 *
 * along one of three paths:
 *
 * flat (singles): one value per key, as parallel arrays keys[j], vals[j].
 * The difference u = key*a + val + p - b lies in [1, 2^63), and p divides u
 * exactly when u * p^-1 mod 2^64 <= (2^64 - 1) / p (Granlund & Montgomery
 * 1994; Lemire, Kaser & Kurz, arXiv:1902.01961).  Multiplication by p^-1 is
 * a ring map mod 2^64, so u * p^-1 = key*(a*p^-1) + (val+p)*p^-1 - b*p^-1
 * with wrapping arithmetic: one multiply per pair, no division.
 *
 * bitmap (multi, groups with 64*size >= p): the group's values are set in a
 * scratch bitmap of p bits, ceil(p/64) <= size words; each item's residue
 * (b - key*a) mod p is then one reduction and one bit test.  The bits are
 * cleared again before the next group.
 *
 * binary search (multi, the other groups): groups keys[g] with sorted
 * values vals[offs[g]:offs[g+1]]; each item's residue is found by a
 * branchless binary search.
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
 * conditional subtraction makes it exact.  Every reduced quantity below is
 * a sum or product of residues, at most p^2 + p < 2^63.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* items per tile: a tile's a*p^-1 and b*p^-1 (32 KiB) stay in L1 */
#define TILE 2048
/* probes held in registers while a tile streams past */
#define BLOCK 8

static inline uint64_t reduce(uint64_t u, uint64_t p, uint64_t m)
{
    const uint64_t q = (uint64_t)(((unsigned __int128)u * m) >> 64);
    const uint64_t r = u - q * p;
    return r >= p ? r - p : r;
}

static uint64_t inverse_mod_2_64(uint64_t p)
{
    /* Newton's iteration doubles the correct low bits: p*p = 1 mod 8 */
    uint64_t x = p;
    for (int k = 0; k < 5; k++)
        x *= 2 - p * x;
    return x;
}

int64_t singles(const int64_t *a, const int64_t *b, int64_t n_items,
                const int64_t *keys, const int64_t *vals, int64_t n_probes,
                int64_t p)
{
    const uint64_t inv = inverse_mod_2_64((uint64_t)p);
    const uint64_t lim = UINT64_MAX / (uint64_t)p;
    uint64_t ta[TILE], tb[TILE];
    int64_t total = 0;
    for (int64_t i0 = 0; i0 < n_items; i0 += TILE) {
        const int64_t len = n_items - i0 < TILE ? n_items - i0 : TILE;
        for (int64_t i = 0; i < len; i++) {
            ta[i] = (uint64_t)a[i0 + i] * inv;
            tb[i] = (uint64_t)b[i0 + i] * inv;
        }
        int64_t j = 0;
        for (; j + BLOCK <= n_probes; j += BLOCK) {
            uint64_t s[BLOCK], c[BLOCK];
            for (int k = 0; k < BLOCK; k++) {
                s[k] = (uint64_t)keys[j + k];
                c[k] = (uint64_t)(vals[j + k] + p) * inv;
            }
            uint64_t hits = 0;
            for (int64_t i = 0; i < len; i++)
                for (int k = 0; k < BLOCK; k++)
                    hits += s[k] * ta[i] + c[k] - tb[i] <= lim;
            total += (int64_t)hits;
        }
        for (; j < n_probes; j++) {
            const uint64_t s = (uint64_t)keys[j];
            const uint64_t c = (uint64_t)(vals[j] + p) * inv;
            uint64_t hits = 0;
            for (int64_t i = 0; i < len; i++)
                hits += s * ta[i] + c - tb[i] <= lim;
            total += (int64_t)hits;
        }
    }
    return total;
}

/* bits: a zeroed scratch bitmap of ceil(p/64) words, or NULL when no group
 * has 64*size >= p; it is zeroed again on return */
int64_t multi(const int64_t *a, const int64_t *b, int64_t n_items,
              const int64_t *keys, const int64_t *offs, int64_t n_groups,
              const int64_t *vals, int64_t p, uint64_t *bits)
{
    const uint64_t up = (uint64_t)p, m = UINT64_MAX / up;
    int64_t total = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        const uint64_t s = (uint64_t)keys[g];
        const int64_t *first = vals + offs[g];
        const int64_t *end = vals + offs[g + 1];
        const int64_t size = end - first;
        if (size == 0)
            continue;
        if (bits != NULL && 64 * size >= p) {
            for (const int64_t *v = first; v < end; v++)
                bits[*v >> 6] |= (uint64_t)1 << (*v & 63);
            uint64_t hits = 0;
            for (int64_t i = 0; i < n_items; i++) {
                const uint64_t v = reduce((uint64_t)b[i] + s * (up - (uint64_t)a[i]), up, m);
                hits += bits[v >> 6] >> (v & 63) & 1;
            }
            total += (int64_t)hits;
            /* every set bit belongs to a value of this group */
            for (const int64_t *v = first; v < end; v++)
                bits[*v >> 6] = 0;
            continue;
        }
        for (int64_t i = 0; i < n_items; i++) {
            /* b + s*(p - a) lies in [0, 2^63) and is b - s*a mod p */
            const int64_t v = (int64_t)reduce((uint64_t)b[i] + s * (up - (uint64_t)a[i]), up, m);
            /* branchless lower bound: the answer stays in [base, base + n] */
            const int64_t *base = first;
            int64_t n = size;
            while (n > 1) {
                const int64_t half = n / 2;
                base = base[half] < v ? base + half : base;
                n -= half;
            }
            base += *base < v;
            total += base < end && *base == v;
        }
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
