/* Compiled kernels of the setup's two slowest phases.
 *
 * kernels.py compiles this file with -ffp-contract=off, so no product is
 * fused into an addition and every sum rounds as the NumPy/SciPy path
 * it replaces does.  The Python code beside each caller is the bit
 * reference: coarsening.cf_split's greedy pass and the sampled SpGEMM
 * product of energymin.apply_weighted_operator.  Index arrays are
 * int32, as SciPy stores them below 2^31 entries.
 */

#include <stdint.h>

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

/* (A W) at W's own slots: out[s] for each of W's slots s, numbered as
 * W's entries.  A is the n_rows x n_rows CSR (a_ptr, a_idx, a_val), its
 * columns W's rows; W is the CSR (w_ptr, w_idx, w_val) with no repeated
 * column in a row.  Gustavson's row loop: marker[k] is the slot of column k in the
 * current row, or -1 (marker holds -1 at every column on entry and on
 * return).  Each slot sums a_ij w_jk from 0.0 in A's stored order of j,
 * as SciPy's csr_matmat sums the entry (i, k) of the product, so a slot
 * reads the product's stored entry to the bit, and 0.0 where the
 * product stores none (no term, or terms that sum to zero).
 */
void masked_product(int64_t n_rows,
                    const int32_t *a_ptr, const int32_t *a_idx, const double *a_val,
                    const int32_t *w_ptr, const int32_t *w_idx, const double *w_val,
                    int32_t *marker, double *out)
{
    for (int64_t i = 0; i < n_rows; i++) {
        int32_t first = w_ptr[i], last = w_ptr[i + 1];
        if (first == last)
            continue;
        for (int32_t s = first; s < last; s++) {
            marker[w_idx[s]] = s;
            out[s] = 0.0;
        }
        for (int32_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
            int32_t j = a_idx[jj];
            double v = a_val[jj];
            for (int32_t kk = w_ptr[j]; kk < w_ptr[j + 1]; kk++) {
                int32_t s = marker[w_idx[kk]];
                if (s >= 0)
                    out[s] += v * w_val[kk];
            }
        }
        for (int32_t s = first; s < last; s++)
            marker[w_idx[s]] = -1;
    }
}
