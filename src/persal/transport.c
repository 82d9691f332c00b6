/*
 * Exact primal network simplex for the dense S x T transportation problem.
 *
 *   minimize  sum_ij cost[i*T + j] * F[i][j]
 *   s.t.      sum_j F[i][j] = supply[i],  sum_i F[i][j] = demand[j],  F >= 0
 *
 * The method is the one of Bonneel, van de Panne, Paris & Heidrich,
 * "Displacement interpolation using Lagrangian mass transport" (SIGGRAPH Asia
 * 2011): a primal network simplex on the complete bipartite graph with
 * block-search pivoting.
 *
 * Nodes 0..S-1 are the sources and S..S+T-1 the sinks; every arc runs from a
 * source to a sink. The spanning tree is rooted at the last sink. Each other
 * node u stores its parent, its depth, its place in the preorder "thread" (a
 * circular list through the root) and the flow on the arc to its parent,
 * which is a source-to-sink arc in either orientation. A pivot walks only the
 * cycle and the subtree it moves; nothing is rebuilt per pivot.
 *
 * Cycling is ruled out by strongly feasible trees (Cunningham 1976): the
 * leaving arc is the last blocking arc met when the cycle is traversed in its
 * direction from its apex. A pivot limit still bounds the run.
 *
 * Potentials are recomputed from the parent at every move, never shifted, so
 * they carry no drift from earlier pivots. The plan returned is the tree's
 * basic solution, recomputed from the supplies and demands in the final tree;
 * it has at most S+T-1 positive entries. The root absorbs the rounding-level
 * imbalance a balanced problem can have in floating point.
 *
 * Plain C99 with no Python API; loaded through ctypes. Compiled with
 * -ffp-contract=off, so every result is a fixed sequence of IEEE operations.
 */

#include <float.h>
#include <stdlib.h>
#include <string.h>

enum {
    PT_OK = 0,
    PT_PIVOT_LIMIT = 1, /* the pivot limit was reached */
    PT_NO_MEMORY = 2,
    PT_BAD_SIZE = 3,
};

/* reduced costs above -TOL_ULPS ulp of the largest cost or potential are
   taken as nonnegative: rounding alone never brings an arc into the tree */
#define TOL_ULPS 64.0

typedef struct {
    int S, T, n;
    long arcs, block;
    const double *cost;
    unsigned char *in_tree; /* S x T */
    int *parent, *depth, *thread, *rev;
    double *flow, *pi; /* flow on the arc to the parent; node potential */
    double scale;      /* largest |cost| or |potential| seen */
    /* scratch for one pivot */
    int *stem, *stem_at, *walk, *order, *stack, *pos, *end;
} Net;

static long arc_to_parent(const Net *g, int u)
{
    int p = g->parent[u];
    return u < g->S ? (long)u * g->T + (p - g->S) : (long)p * g->T + (u - g->S);
}

/* depth and potential of u from its parent's */
static void attach(Net *g, int u)
{
    int p = g->parent[u];
    double c = g->cost[arc_to_parent(g, u)];
    double pi = u < g->S ? g->pi[p] - c : g->pi[p] + c;
    double a = pi < 0 ? -pi : pi;
    g->depth[u] = g->depth[p] + 1;
    g->pi[u] = pi;
    if (a > g->scale)
        g->scale = a;
}

/* the basic solution of the tree: each arc carries the net supply beyond it */
static void tree_flows(Net *g, const double *supply, const double *demand, double *net)
{
    int root = g->n - 1;
    for (int u = 0; u < g->S; u++)
        net[u] = supply[u];
    for (int j = 0; j < g->T; j++)
        net[g->S + j] = -demand[j];
    for (int u = g->rev[root]; u != root; u = g->rev[u]) {
        double f = u < g->S ? net[u] : -net[u];
        g->flow[u] = f > 0 ? f : 0.0;
        net[g->parent[u]] += net[u];
    }
}

/* North-west corner rule: a path through the cells (i, j) that carries the
   masses in index order. When a source and a sink run out together, the
   next cell is in the same row, so its zero-flow arc points to the root. */
static int initial_tree(Net *g, const double *supply, const double *demand, double *rest)
{
    int S = g->S, T = g->T, n = g->n, root = n - 1;
    int *deg = calloc((size_t)n + 1, sizeof(int));
    int *adj = malloc(2 * (size_t)n * sizeof(int));
    int *cell_i = malloc((size_t)n * sizeof(int)), *cell_j = malloc((size_t)n * sizeof(int));
    if (!deg || !adj || !cell_i || !cell_j) {
        free(deg), free(adj), free(cell_i), free(cell_j);
        return PT_NO_MEMORY;
    }
    double *ra = rest, *rb = rest + S;
    memcpy(ra, supply, (size_t)S * sizeof(double));
    memcpy(rb, demand, (size_t)T * sizeof(double));
    int i = 0, j = 0, cells = 0;
    for (;;) {
        double x = ra[i] < rb[j] ? ra[i] : rb[j];
        ra[i] -= x;
        rb[j] -= x;
        cell_i[cells] = i;
        cell_j[cells++] = j;
        g->in_tree[(long)i * T + j] = 1;
        if (i == S - 1 && j == T - 1)
            break;
        if (i == S - 1 || (j < T - 1 && rb[j] == 0))
            j++;
        else
            i++;
    }
    /* adjacency in CSR form, then a depth-first preorder from the root */
    for (int c = 0; c < cells; c++) {
        deg[cell_i[c] + 1]++;
        deg[S + cell_j[c] + 1]++;
    }
    for (int u = 0; u < n; u++)
        deg[u + 1] += deg[u];
    int *fill = g->pos; /* scratch */
    memcpy(fill, deg, (size_t)n * sizeof(int));
    for (int c = 0; c < cells; c++) {
        adj[fill[cell_i[c]]++] = S + cell_j[c];
        adj[fill[S + cell_j[c]]++] = cell_i[c];
    }
    int top = 0, count = 0;
    g->parent[root] = -1;
    g->depth[root] = 0;
    g->pi[root] = 0.0;
    g->stack[top++] = root;
    while (top > 0) {
        int u = g->stack[--top];
        g->order[count++] = u;
        for (int e = deg[u]; e < deg[u + 1]; e++) {
            int v = adj[e];
            if (v != g->parent[u]) {
                g->parent[v] = u;
                g->stack[top++] = v;
            }
        }
    }
    for (int k = 0; k < n; k++) {
        int u = g->order[k], v = g->order[(k + 1) % n];
        g->thread[u] = v;
        g->rev[v] = u;
        if (u != root)
            attach(g, u);
    }
    free(deg), free(adj), free(cell_i), free(cell_j);
    tree_flows(g, supply, demand, rest);
    return PT_OK;
}

/* block search: the most negative reduced cost in the first block of arcs,
   from where the last search stopped, that holds one; -1 when none does */
static long entering_arc(const Net *g, long *next)
{
    const int S = g->S, T = g->T;
    const double *c = g->cost, *ps = g->pi, *pt = g->pi + S;
    double min = -TOL_ULPS * DBL_EPSILON * g->scale;
    long k = *next, best = -1, cnt = g->block;
    int i = (int)(k / T), j = (int)(k % T);
    for (long scanned = 0; scanned < g->arcs; scanned++) {
        double rc = c[k] + ps[i] - pt[j];
        if (rc < min && !g->in_tree[k]) {
            min = rc;
            best = k;
        }
        if (++k == g->arcs)
            k = 0;
        if (++j == T) {
            j = 0;
            if (++i == S)
                i = 0;
        }
        if (--cnt == 0) {
            if (best >= 0)
                break;
            cnt = g->block;
        }
    }
    *next = k;
    return best;
}

/* Re-root the subtree of u_out at u_in and hang it below v_in. The new
   preorder is the subtree of u_in, then each stem node s_m on the way up to
   u_out followed by the rest of its old subtree. */
static void move_subtree(Net *g, int u_in, int v_in, int u_out, double delta)
{
    int *stem = g->stem, *stem_at = g->stem_at, *walk = g->walk, *order = g->order;
    int *pos = g->pos, *end = g->end, *stack = g->stack;
    int k = 0;
    stem[0] = u_in;
    while (stem[k] != u_out) {
        stem[k + 1] = g->parent[stem[k]];
        k++;
    }
    for (int m = 0; m <= k; m++)
        stem_at[stem[m]] = m;

    int d0 = g->depth[u_out], len = 0, top = 0, x;
    walk[len++] = u_out;
    for (x = g->thread[u_out]; g->depth[x] > d0; x = g->thread[x])
        walk[len++] = x;
    int after = x, before = g->rev[u_out];
    for (int q = 0; q < len; q++) { /* the span walk[pos[m] .. end[m]) of each stem node */
        x = walk[q];
        while (top > 0 && g->depth[stack[top - 1]] >= g->depth[x])
            end[stem_at[stack[--top]]] = q;
        if (stem_at[x] >= 0) {
            pos[stem_at[x]] = q;
            stack[top++] = x;
        }
    }
    while (top > 0)
        end[stem_at[stack[--top]]] = len;

    int n = 0;
    for (int q = pos[0]; q < end[0]; q++)
        order[n++] = walk[q];
    for (int m = 1; m <= k; m++) {
        order[n++] = walk[pos[m]];
        for (int q = pos[m] + 1; q < pos[m - 1]; q++)
            order[n++] = walk[q];
        for (int q = end[m - 1]; q < end[m]; q++)
            order[n++] = walk[q];
    }
    for (int m = 0; m <= k; m++)
        stem_at[stem[m]] = -1;

    /* unlink the old span, splice the new one in after v_in */
    g->thread[before] = after;
    g->rev[after] = before;
    int prev = v_in, next = g->thread[v_in];
    for (int q = 0; q < n; q++) {
        g->thread[prev] = order[q];
        g->rev[order[q]] = prev;
        prev = order[q];
    }
    g->thread[prev] = next;
    g->rev[next] = prev;

    /* each stem arc now belongs to the node above it, with its flow */
    for (int m = k; m >= 1; m--) {
        g->parent[stem[m]] = stem[m - 1];
        g->flow[stem[m]] = g->flow[stem[m - 1]];
    }
    g->parent[u_in] = v_in;
    g->flow[u_in] = delta;
    for (int q = 0; q < n; q++)
        attach(g, order[q]);
}

static void pivot(Net *g, long in)
{
    const int S = g->S;
    int a = (int)(in / g->T), b = S + (int)(in % g->T);
    int u = a, v = b;
    while (u != v) {
        if (g->depth[u] > g->depth[v])
            u = g->parent[u];
        else if (g->depth[v] > g->depth[u])
            v = g->parent[v];
        else
            u = g->parent[u], v = g->parent[v];
    }
    int join = u;

    /* Flow goes a -> b, up from b to the apex, and down from the apex to a.
       The blocking arcs are the source arcs on a's side and the sink arcs
       on b's side; of equal ones the last in cycle order leaves. */
    double delta = DBL_MAX;
    int u_out = -1, side = 0;
    for (u = a; u != join; u = g->parent[u])
        if (u < S && g->flow[u] < delta)
            delta = g->flow[u], u_out = u, side = 1;
    for (u = b; u != join; u = g->parent[u])
        if (u >= S && g->flow[u] <= delta)
            delta = g->flow[u], u_out = u, side = 2;
    if (delta > 0) {
        for (u = a; u != join; u = g->parent[u])
            g->flow[u] += u < S ? -delta : delta;
        for (u = b; u != join; u = g->parent[u])
            g->flow[u] += u < S ? delta : -delta;
    }
    g->in_tree[arc_to_parent(g, u_out)] = 0;
    g->in_tree[in] = 1;
    if (side == 1)
        move_subtree(g, a, b, u_out, delta);
    else
        move_subtree(g, b, a, u_out, delta);
}

/* Solve one problem. flow_out (S x T, row-major) must be zero on entry; the
   tree arcs are written into it. Returns a PT_* code. */
int persal_transport(int S, int T, const double *supply, const double *demand,
                     const double *cost, double *flow_out, long long max_pivots)
{
    if (S < 1 || T < 1)
        return PT_BAD_SIZE;
    Net g = {0};
    g.S = S;
    g.T = T;
    g.n = S + T;
    g.arcs = (long)S * T;
    g.cost = cost;
    for (g.block = 1; (g.block + 1) * (g.block + 1) <= g.arcs; g.block++)
        ;
    if (g.block < 10)
        g.block = 10;
    for (long k = 0; k < g.arcs; k++) {
        double a = cost[k] < 0 ? -cost[k] : cost[k];
        if (a > g.scale)
            g.scale = a;
    }

    int **slots[] = {&g.parent, &g.depth, &g.thread, &g.rev, &g.stem, &g.stem_at,
                     &g.walk, &g.order, &g.stack, &g.pos, &g.end};
    size_t n = (size_t)g.n, n_slots = sizeof slots / sizeof *slots;
    int *ints = malloc(n_slots * n * sizeof(int));
    double *reals = malloc(3 * n * sizeof(double));
    g.in_tree = calloc((size_t)g.arcs, 1);
    if (!ints || !reals || !g.in_tree) {
        free(ints), free(reals), free(g.in_tree);
        return PT_NO_MEMORY;
    }
    for (size_t s = 0; s < n_slots; s++)
        *slots[s] = ints + s * n;
    g.flow = reals;
    g.pi = reals + n;
    double *net = reals + 2 * n; /* scratch for initial_tree and tree_flows */
    for (size_t u = 0; u < n; u++)
        g.stem_at[u] = -1;

    int code = initial_tree(&g, supply, demand, net);
    long long pivots = 0;
    long next = 0;
    while (code == PT_OK) {
        long in = entering_arc(&g, &next);
        if (in < 0)
            break;
        if (pivots++ == max_pivots)
            code = PT_PIVOT_LIMIT;
        else
            pivot(&g, in);
    }
    if (code == PT_OK) {
        tree_flows(&g, supply, demand, net);
        for (int u = 0; u < g.n - 1; u++)
            flow_out[arc_to_parent(&g, u)] = g.flow[u];
    }
    free(ints), free(reals), free(g.in_tree);
    return code;
}
