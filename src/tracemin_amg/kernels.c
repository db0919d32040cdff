/* Compiled kernels of the setup's NumPy and Python passes.
 *
 * kernels.py compiles this file with -ffp-contract=off, so no product is
 * fused into an addition and every sum rounds as the NumPy/SciPy path
 * it replaces does.  The Python code beside each caller is the bit
 * reference: coarsening._strong_couplings' one-sided pass, cf_split's
 * greedy pass and pattern_distance_k's boolean SpGEMMs,
 * energymin.apply_weighted_operator's sampled product and one-candidate
 * term, energymin._RowConstraints' one-candidate row passes and
 * _cg_update's vector updates, whose row sums copy np.add.reduceat's
 * order, and hierarchy.galerkin_product's upper triangle of SciPy's
 * product R (A P), its mirror, dominance certificate and drop-and-lump
 * loop.  Index arrays are int32, as SciPy stores them below 2^31
 * entries.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Strength of connection, one-sided: for each row i of the n x n CSR A
 * (indptr, indices, data) with diagonal d, the entries a_ij, j != i,
 * whose scaled value v_ij = |a_ij| / sqrt(d_i d_j) passes
 * v_ij >= theta max_k v_ik and v_ij > 0, in A's stored order, written to
 * (s_ptr, s_idx); s_idx has room for every stored entry.  The row
 * maximum is taken as np.maximum.reduceat takes it, a NaN included, and
 * a diagonal entry scales to 0.0.
 */
void strong_couplings(int64_t n, const int32_t *indptr, const int32_t *indices,
                      const double *data, const double *d, double theta,
                      int32_t *s_ptr, int32_t *s_idx)
{
    int32_t pos = 0;
    s_ptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        double m = 0.0;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            int32_t j = indices[jj];
            double v = j == i ? 0.0 : fabs(data[jj]) / sqrt(d[i] * d[j]);
            if (jj == indptr[i] || isnan(v) || v > m)
                m = isnan(m) ? m : v;
        }
        m *= theta;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            int32_t j = indices[jj];
            double v = j == i ? 0.0 : fabs(data[jj]) / sqrt(d[i] * d[j]);
            if (v >= m && v > 0.0)
                s_idx[pos++] = j;
        }
        s_ptr[i + 1] = pos;
    }
}

/* Binary min-heap of int64 keys in heap[0:size]. */
static void heap_push(int64_t *heap, int64_t size, int64_t key)
{
    int64_t k = size;
    while (k > 0) {
        int64_t parent = (k - 1) / 2;
        if (heap[parent] <= key)
            break;
        heap[k] = heap[parent];
        k = parent;
    }
    heap[k] = key;
}

static int64_t heap_pop(int64_t *heap, int64_t size)
{
    int64_t top = heap[0], last = heap[size - 1], k = 0;
    size -= 1;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child + 1] < heap[child])
            child += 1;
        if (heap[child] >= last)
            break;
        heap[k] = heap[child];
        k = child;
    }
    if (size > 0)
        heap[k] = last;
    return top;
}

/* The greedy first-pass CF split of the n-vertex graph (indptr,
 * indices): the unassigned vertex adjacent to the most F points turns
 * C, ties to the lowest index, and its unassigned neighbors turn F.
 *
 * state holds 0 (unassigned) or 1 (C, a vertex with no edge) on entry
 * and 1 (C) or 2 (F) on return.  measure is n zeros, heap room for one
 * key per stored entry.  A vertex w whose measure reaches m is pushed
 * with the key w - m n, so the smallest key is the highest measure with
 * ties to the lowest index.  Measures only grow, so a vertex's current
 * key is its smallest: a popped key of an assigned vertex is stale and
 * dropped (lazy deletion), and one of an unassigned vertex is current.
 * With the heap empty every unassigned vertex has measure 0, and the
 * lowest is found by a cursor that only moves forward.
 */
void greedy_split(int64_t n, const int32_t *indptr, const int32_t *indices,
                  uint8_t *state, int32_t *measure, int64_t *heap)
{
    int64_t remaining = 0, size = 0, cursor = 0;
    for (int64_t i = 0; i < n; i++)
        remaining += state[i] == 0;

    while (remaining > 0) {
        int64_t v = -1;
        while (size > 0) {
            int64_t w = heap_pop(heap, size) % n;
            size -= 1;
            if (w < 0)
                w += n;
            if (!state[w]) {
                v = w;
                break;
            }
        }
        if (v < 0) {
            while (state[cursor])
                cursor += 1;
            v = cursor++;
        }

        state[v] = 1;
        remaining -= 1;
        for (int32_t jj = indptr[v]; jj < indptr[v + 1]; jj++) {
            int32_t u = indices[jj];
            if (state[u])
                continue;
            state[u] = 2;
            remaining -= 1;
            for (int32_t kk = indptr[u]; kk < indptr[u + 1]; kk++) {
                int32_t w = indices[kk];
                if (!state[w]) {
                    int32_t m = ++measure[w];
                    heap_push(heap, size++, (int64_t)w - (int64_t)m * n);
                }
            }
        }
    }
}

static int compare_int32(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Sort values[0:count] ascending: by insertion for a short row, else qsort. */
static void sort_int32(int32_t *values, int64_t count)
{
    if (count > 32) {
        qsort(values, (size_t)count, sizeof *values, compare_int32);
        return;
    }
    for (int64_t a = 1; a < count; a++) {
        int32_t key = values[a];
        int64_t b = a;
        for (; b > 0 && values[b - 1] > key; b--)
            values[b] = values[b - 1];
        values[b] = key;
    }
}

/* The distance-k interpolation pattern over the adjacency (indptr,
 * indices): row r lists, sorted, the C-local index c_index[w] of every C
 * point w (c_index[w] >= 0; -1 at an F point) that a breadth-first search
 * from F point f_points[r] reaches within k edges.
 *
 * Rows row, row + 1, ... are written to (out_ptr, out_cols), out_ptr[row]
 * set on entry and out_cols of room `capacity`, until all n_f rows are
 * written or a row would not fit; returns the first row not written.
 * mark holds, per vertex, the last row that visited it (-1 on the first
 * call; a row that did not fit leaves no mark), queue room for every
 * vertex.
 */
int64_t distance_k_rows(int64_t k, const int32_t *indptr, const int32_t *indices,
                        const int32_t *c_index, int64_t n_f, const int64_t *f_points,
                        int64_t row, int32_t *mark, int32_t *queue,
                        int32_t *out_ptr, int32_t *out_cols, int64_t capacity)
{
    for (; row < n_f; row++) {
        int32_t stamp = (int32_t)row;
        int64_t head = 0, tail = 0, first = out_ptr[row], pos = first;
        mark[f_points[row]] = stamp;
        queue[tail++] = (int32_t)f_points[row];
        for (int64_t depth = 0; depth < k && head < tail; depth++) {
            for (int64_t end = tail; head < end; head++) {
                int32_t v = queue[head];
                for (int32_t jj = indptr[v]; jj < indptr[v + 1]; jj++) {
                    int32_t w = indices[jj];
                    if (mark[w] == stamp)
                        continue;
                    mark[w] = stamp;
                    queue[tail++] = w;
                    if (c_index[w] < 0)
                        continue;
                    if (pos == capacity) {
                        for (int64_t q = 0; q < tail; q++)
                            mark[queue[q]] = -1;
                        return row;
                    }
                    out_cols[pos++] = c_index[w];
                }
            }
        }
        sort_int32(out_cols + first, pos - first);
        out_ptr[row + 1] = (int32_t)pos;
    }
    return row;
}

/* The weighted operator at W's own slots: out[s] for each of W's slots
 * s, numbered as W's entries, is
 *
 *     tau (A W)_s + cand_scale[s] V_i b_c[k],   V = W b_c,
 *
 * for slot s = (i, k).  A is the n_rows x n_rows CSR (a_ptr, a_idx,
 * a_val), its columns W's rows; W is the CSR (w_ptr, w_idx, w_val) with
 * no repeated column in a row.  (A W) is formed only for tau > 0 and
 * multiplied by tau only for 0 < tau < 1; with cand_scale NULL there is
 * no candidate term, and b_c and v are not read.
 *
 * Gustavson's row loop: marker[k] is the slot of column k in the
 * current row, or -1 (marker holds -1 at every column on entry and on
 * return).  Each slot sums a_ij w_jk from 0.0 in A's stored order of j,
 * as SciPy's csr_matmat sums the entry (i, k) of the product, so a slot
 * reads the product's stored entry to the bit, and 0.0 where the
 * product stores none (no term, or terms that sum to zero).  V_i sums
 * w_ik b_c[k] from 0.0 in W's order, as SciPy's W @ b_c does.  The
 * Python path's einsum forms 0.0 + V_i b_c[k], turning a -0.0 into +0.0;
 * here that sign cannot show, since a slot's value before the term is
 * never -0.0 (each sum starts from +0.0), so adding either zero keeps it.
 */
void masked_product(int64_t n_rows,
                    const int32_t *a_ptr, const int32_t *a_idx, const double *a_val,
                    const int32_t *w_ptr, const int32_t *w_idx, const double *w_val,
                    int32_t *marker, double tau, const double *cand_scale,
                    const double *b_c, double *v, double *out)
{
    if (cand_scale)
        for (int64_t i = 0; i < n_rows; i++) {
            double sum = 0.0;
            for (int32_t s = w_ptr[i]; s < w_ptr[i + 1]; s++)
                sum += w_val[s] * b_c[w_idx[s]];
            v[i] = sum;
        }
    for (int64_t i = 0; i < n_rows; i++) {
        int32_t first = w_ptr[i], last = w_ptr[i + 1];
        if (first == last)
            continue;
        for (int32_t s = first; s < last; s++)
            out[s] = 0.0;
        if (tau > 0.0) {
            for (int32_t s = first; s < last; s++)
                marker[w_idx[s]] = s;
            for (int32_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
                int32_t j = a_idx[jj];
                double a = a_val[jj];
                for (int32_t kk = w_ptr[j]; kk < w_ptr[j + 1]; kk++) {
                    int32_t s = marker[w_idx[kk]];
                    if (s >= 0)
                        out[s] += a * w_val[kk];
                }
            }
            for (int32_t s = first; s < last; s++) {
                marker[w_idx[s]] = -1;
                if (tau < 1.0)
                    out[s] *= tau;
            }
        }
        if (cand_scale)
            for (int32_t s = first; s < last; s++)
                out[s] += cand_scale[s] * (v[i] * b_c[w_idx[s]]);
    }
}

/* NumPy's pairwise sum of a[0:n], the order its float64 add reduction
 * takes: under 8 terms one sum from -0.0, up to 128 terms eight
 * accumulators, each summing every eighth term, combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the terms
 * past the last multiple of 8 added in order; above 128 terms the sum
 * of two halves split at a multiple of 8.
 */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double sum = -0.0;
        for (int64_t i = 0; i < n; i++)
            sum += a[i];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += a[i];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* A segment's sum as np.add.reduceat forms it: the first of the n >= 1
 * terms, plus the pairwise sum of the rest.
 */
static double segment_sum(const double *a, int64_t n)
{
    return n == 1 ? a[0] : a[0] + pairwise_sum(a + 1, n - 1);
}

/* Room for one term per slot of the longest of the n_rows rows of
 * w_ptr, or NULL where it cannot be allocated.
 */
static double *row_terms(int64_t n_rows, const int32_t *w_ptr)
{
    int32_t longest = 1;
    for (int64_t i = 0; i < n_rows; i++)
        if (w_ptr[i + 1] - w_ptr[i] > longest)
            longest = w_ptr[i + 1] - w_ptr[i];
    return malloc((size_t)longest * sizeof(double));
}

/* The row constraints W b_c = b_f of one candidate b_c over the pattern
 * (w_ptr, w_idx) of n_rows rows, in energymin._RowConstraints' order:
 * the Gram scalar of row i is g_i = sum c^2 over its slots, c =
 * b_c[col], and ginv holds 1/g_i, or 0.0 where g_i == 0, one value per
 * nonempty row in row order.  Each row sum is a segment_sum of its
 * per-slot products, formed in a row_terms buffer; the NumPy path's
 * einsum adds each product to 0.0, turning a -0.0 into +0.0, and so do
 * the 0.0 + below.  Each function returns 0, or -1 where its buffer
 * cannot be allocated, its outputs untouched.
 */
int row_gram_inverse(int64_t n_rows, const int32_t *w_ptr, const int32_t *w_idx,
                     const double *b_c, double *ginv)
{
    double *terms = row_terms(n_rows, w_ptr);
    if (!terms)
        return -1;
    for (int64_t i = 0, row = 0; i < n_rows; i++) {
        int32_t first = w_ptr[i], last = w_ptr[i + 1];
        if (first == last)
            continue;
        for (int32_t s = first; s < last; s++)
            terms[s - first] = b_c[w_idx[s]] * b_c[w_idx[s]];
        double g = segment_sum(terms, last - first);
        ginv[row++] = g != 0.0 ? 1.0 / g : 0.0;
    }
    free(terms);
    return 0;
}

/* z at row i's slots first..last-1 projected onto c^T z = 0:
 * z -= c (0.0 + ginv_i (c^T z)).
 */
static void project_row(const int32_t *w_idx, const double *b_c, double ginv,
                        int32_t first, int32_t last, double *terms, double *z)
{
    for (int32_t s = first; s < last; s++)
        terms[s - first] = b_c[w_idx[s]] * z[s];
    double scale = 0.0 + ginv * segment_sum(terms, last - first);
    for (int32_t s = first; s < last; s++)
        z[s] -= 0.0 + b_c[w_idx[s]] * scale;
}

/* The slot values z projected onto {Z : Z b_c = 0}, row by row, in place. */
int row_project(int64_t n_rows, const int32_t *w_ptr, const int32_t *w_idx,
                const double *b_c, const double *ginv, double *z)
{
    double *terms = row_terms(n_rows, w_ptr);
    if (!terms)
        return -1;
    for (int64_t i = 0, row = 0; i < n_rows; i++)
        if (w_ptr[i] < w_ptr[i + 1])
            project_row(w_idx, b_c, ginv[row++], w_ptr[i], w_ptr[i + 1], terms, z);
    free(terms);
    return 0;
}

/* The minimum-norm slot values with W b_c = b_f: c (0.0 + ginv_i b_f[i])
 * at each slot of row i, 0.0 + that product written to values.
 */
void row_min_norm(int64_t n_rows, const int32_t *w_ptr, const int32_t *w_idx,
                  const double *b_c, const double *ginv, const double *b_f,
                  double *values)
{
    for (int64_t i = 0, row = 0; i < n_rows; i++) {
        if (w_ptr[i] == w_ptr[i + 1])
            continue;
        double scale = 0.0 + ginv[row++] * b_f[i];
        for (int32_t s = w_ptr[i]; s < w_ptr[i + 1]; s++)
            values[s] = 0.0 + b_c[w_idx[s]] * scale;
    }
}

/* One step's updates of energymin.pcg_frobenius in one pass over its
 * slots: with Lp's buffer lp, r -= lp alpha, x += alpha p, and lp =
 * diag r, each rounded as the NumPy expressions round it.  Given the
 * pattern (else w_ptr, w_idx, b_c and ginv are NULL and n counts
 * slots), n counts its rows, and each row of lp is projected as
 * row_project projects it once the row is updated, so lp holds the
 * projected, preconditioned residual z.  Returns 0, or -1 where the
 * buffer cannot be allocated, nothing updated.
 */
int cg_update(int64_t n, const int32_t *w_ptr, const int32_t *w_idx, const double *b_c,
              const double *ginv, double alpha, const double *p, double *lp, double *x,
              double *r, const double *diag)
{
    double *terms = w_ptr ? row_terms(n, w_ptr) : NULL;
    if (w_ptr && !terms)
        return -1;
    int64_t rows = w_ptr ? n : 1;
    for (int64_t i = 0, row = 0; i < rows; i++) {
        int64_t first = w_ptr ? w_ptr[i] : 0, last = w_ptr ? w_ptr[i + 1] : n;
        for (int64_t s = first; s < last; s++) {
            r[s] -= lp[s] * alpha;
            x[s] += alpha * p[s];
            lp[s] = diag[s] * r[s];
        }
        if (w_ptr && first < last)
            project_row(w_idx, b_c, ginv[row++], (int32_t)first, (int32_t)last, terms, lp);
    }
    free(terms);
    return 0;
}

/* The upper triangle U = triu(R AP) of the product of the CSR R (r_ptr,
 * r_idx, r_val) of n rows and the CSR AP (ap_ptr, ap_idx, ap_val), whose
 * rows R's columns number and whose columns number n.  Each entry (i, k),
 * k >= i, sums r_ij ap_jk from 0.0 in R's stored order of j, as SciPy's
 * csr_matmat sums the product's entry, and an exactly zero sum is not
 * stored; entries with k < i are not formed.
 *
 * Rows row, row + 1, ... are written, their columns sorted, to (u_ptr,
 * u_idx, u_val), u_ptr[row] set on entry and u_idx and u_val of room
 * `capacity`, until all n rows are written or a row would not fit;
 * returns the first row not written.  sums holds 0.0 and mark -1 at
 * every column on entry and on return; touched has room for n columns.
 */
int64_t upper_product_rows(int64_t n, const int32_t *r_ptr, const int32_t *r_idx,
                           const double *r_val, const int32_t *ap_ptr,
                           const int32_t *ap_idx, const double *ap_val, int64_t row,
                           double *sums, int32_t *mark, int32_t *touched,
                           int32_t *u_ptr, int32_t *u_idx, double *u_val, int64_t capacity)
{
    for (; row < n; row++) {
        int64_t count = 0, pos = u_ptr[row], last = row;
        for (int32_t jj = r_ptr[row]; jj < r_ptr[row + 1]; jj++) {
            int32_t j = r_idx[jj];
            double v = r_val[jj];
            for (int32_t kk = ap_ptr[j]; kk < ap_ptr[j + 1]; kk++) {
                int32_t k = ap_idx[kk];
                if (k < row)
                    continue;
                sums[k] += v * ap_val[kk];
                if (mark[k] < 0) {
                    mark[k] = 1;
                    touched[count++] = k;
                    if (k > last)
                        last = k;
                }
            }
        }
        if (pos + count > capacity) {
            for (int64_t t = 0; t < count; t++) {
                sums[touched[t]] = 0.0;
                mark[touched[t]] = -1;
            }
            return row;
        }
        /* the columns in order: a scan of their range where it is short
         * against their count, else a sort */
        if (last - row < 8 * count) {
            count = 0;
            for (int64_t k = row; k <= last; k++)
                if (mark[k] >= 0)
                    touched[count++] = (int32_t)k;
        } else {
            sort_int32(touched, count);
        }
        for (int64_t t = 0; t < count; t++) {
            int32_t k = touched[t];
            if (sums[k] != 0.0) {
                u_idx[pos] = k;
                u_val[pos++] = sums[k];
            }
            sums[k] = 0.0;
            mark[k] = -1;
        }
        u_ptr[row + 1] = (int32_t)pos;
    }
    return row;
}

/* The symmetric n x n CSR whose upper triangle, diagonal included, is the
 * CSR U (u_ptr, u_idx, u_val) with sorted rows and no column below its
 * row: row i lists the mirrors u_ji, j < i, in order of j, then U's row
 * i, so its columns are sorted.  out_ptr (n + 1 zeros on entry) gets the
 * row pointers; given out_idx and out_val (else both NULL), with room for
 * out_ptr[n] entries, the entries are written too, fill having room for
 * n row cursors.
 */
void mirror_upper(int64_t n, const int32_t *u_ptr, const int32_t *u_idx,
                  const double *u_val, int32_t *out_ptr, int32_t *fill,
                  int32_t *out_idx, double *out_val)
{
    if (!out_idx) {
        for (int64_t i = 0; i < n; i++) {
            out_ptr[i + 1] += u_ptr[i + 1] - u_ptr[i];
            for (int32_t s = u_ptr[i]; s < u_ptr[i + 1]; s++)
                if (u_idx[s] != i)
                    out_ptr[u_idx[s] + 1]++;
        }
        for (int64_t i = 0; i < n; i++)
            out_ptr[i + 1] += out_ptr[i];
        return;
    }
    for (int64_t i = 0; i < n; i++)
        fill[i] = out_ptr[i];
    /* row i's mirrors come from rows j < i, all placed before row i's own */
    for (int64_t i = 0; i < n; i++)
        for (int32_t s = u_ptr[i]; s < u_ptr[i + 1]; s++) {
            int32_t k = u_idx[s];
            out_idx[fill[i]] = k;
            out_val[fill[i]++] = u_val[s];
            if (k != i) {
                out_idx[fill[k]] = (int32_t)i;
                out_val[fill[k]++] = u_val[s];
            }
        }
}

/* Whether b-scaled diagonal dominance certifies the CSR Ac of diagonal
 * d: every b_i != 0 and every row has d_i |b_i| >= sum_{j != i} |a_ij|
 * |b_j|, summed from 0.0 in stored order (hierarchy._b_dominant).
 */
static int b_dominant(int64_t n, const int32_t *indptr, const int32_t *indices,
                      const double *data, const double *d, const double *b)
{
    for (int64_t i = 0; i < n; i++)
        if (b[i] == 0.0)
            return 0;
    for (int64_t i = 0; i < n; i++) {
        double mass = 0.0;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++)
            if (indices[jj] != i)
                mass += fabs(data[jj]) * fabs(b[indices[jj]]);
        if (d[i] * fabs(b[i]) < mass)
            return 0;
    }
    return 1;
}

/* hierarchy.galerkin_product's drop-and-lump rule, in one row loop over
 * the n x n CSR Ac of diagonal d, in place.  An entry is dropped where
 * |a_ij| < t_i t_j.  Given b (else b, r and r_neg are NULL), an entry not
 * dropped is lumped where q = (r_i b_j) |a_ij| and (b_i r_j) |a_ij| both
 * lie in (0, 1], r read from r_neg for a_ij < 0 on a product that
 * b_dominant certifies (r_neg not NULL); each row sums its lumped a_ij b_j
 * from 0.0 in stored order, and a nonzero sum `moved` sets the row's
 * stored diagonal, if kept, to d_i + moved / b_i.  Dropped and lumped
 * entries are set to 0.0.  Returns their count.
 */
int64_t drop_and_lump(int64_t n, const int32_t *indptr, const int32_t *indices,
                      double *data, const double *d, const double *t, const double *b,
                      const double *r, const double *r_neg)
{
    int64_t zeroed = 0;
    if (b && r_neg && !b_dominant(n, indptr, indices, data, d, b))
        r_neg = NULL;
    for (int64_t i = 0; i < n; i++) {
        double moved = 0.0;
        int32_t diagonal = -1;
        for (int32_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
            int32_t j = indices[jj];
            double a = data[jj], size = fabs(a);
            int drop = size < t[i] * t[j], lump = 0;
            if (b && !drop) {
                const double *rr = r_neg && a < 0.0 ? r_neg : r;
                double q_ij = rr[i] * b[j] * size, q_ji = b[i] * rr[j] * size;
                lump = q_ij > 0.0 && q_ij <= 1.0 && q_ji > 0.0 && q_ji <= 1.0;
                if (lump)
                    moved += a * b[j];
            }
            if (drop || lump) {
                data[jj] = 0.0;
                zeroed++;
            } else if (j == i) {
                diagonal = jj;
            }
        }
        if (moved != 0.0 && diagonal >= 0)
            data[diagonal] = d[i] + moved / b[i];
    }
    return zeroed;
}
