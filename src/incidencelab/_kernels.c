/* Probe kernels of the hash-join incidence engine.
 *
 * Both kernels count pairs (item i, probe) with
 *
 *     b[i] - key * a[i] = val  (mod p)
 *
 * where every input is a residue in [0, p) and p is an odd prime below 2^31.
 * incidence.py compiles this file on first use and calls it through ctypes.
 *
 * singles: one value per key, as parallel arrays keys[j], vals[j].  The
 * difference u = key*a + val + p - b lies in [1, 2^63), and p divides u
 * exactly when u * p^-1 mod 2^64 <= (2^64 - 1) / p (Granlund & Montgomery
 * 1994; Lemire, Kaser & Kurz, arXiv:1902.01961).  Multiplication by p^-1 is
 * a ring map mod 2^64, so u * p^-1 = key*(a*p^-1) + (val+p)*p^-1 - b*p^-1
 * with wrapping arithmetic: one multiply per pair, no division.
 *
 * multi: groups keys[g] with sorted values vals[offs[g]:offs[g+1]]; each
 * item's residue (b - key*a) mod p is found by binary search.
 */
#include <stdint.h>

/* items per tile: a tile's a*p^-1 and b*p^-1 (32 KiB) stay in L1 */
#define TILE 2048
/* probes held in registers while a tile streams past */
#define BLOCK 8

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

int64_t multi(const int64_t *a, const int64_t *b, int64_t n_items,
              const int64_t *keys, const int64_t *offs, int64_t n_groups,
              const int64_t *vals, int64_t p)
{
    const uint64_t up = (uint64_t)p;
    int64_t total = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        const uint64_t s = (uint64_t)keys[g];
        const int64_t *first = vals + offs[g];
        const int64_t *end = vals + offs[g + 1];
        const int64_t size = end - first;
        if (size == 0)
            continue;
        for (int64_t i = 0; i < n_items; i++) {
            /* b + s*(p - a) lies in [0, 2^63) and is b - s*a mod p */
            const int64_t v = (int64_t)(((uint64_t)b[i] + s * (up - (uint64_t)a[i])) % up);
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
