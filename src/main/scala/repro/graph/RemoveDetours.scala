package repro.graph

import repro.core.{MetricSpace, ParRunner, Shuffle}
import scala.collection.mutable
import scala.util.Random

/** §5.3 / Algorithm 5: create (approximate) monotonic paths.
  *
  * For a pivot-weighted sample of ~n/K target objects `p`: a 3-hop BFS from
  * `p` and 2-hop BFSes from up to `min(K,10)` sampled nearby pivots find
  * objects `w` whose discovered paths are detours (no predecessor `u` on a
  * monotonic prefix with `dist(p,u) <= dist(p,w)`). Those objects are sorted
  * ascending by distance to `p` and chain-linked `p -> A[0] -> A[1] -> ...`,
  * which makes the path from `p` through them monotonic (Definition 3).
  *
  * The per-target BFS is read-only, so targets are dealt out through
  * [[ParRunner.mapIds]] over a CSR snapshot of the adjacency
  * (generation-stamped, thread-local scratch arrays keep each BFS
  * allocation-free); the chains are linked on the driver, in target order.
  */
object RemoveDetours {

  /** Safety bound on the vertices one BFS expands from; |A| is O(K^2) per
    * the paper. A BFS it cuts short counts in [[Result.capHits]].
    */
  val MaxVisitsPerBfs = 4096

  /** Links added, and the BFSes [[MaxVisitsPerBfs]] cut short: stopped with
    * a vertex left in the queue whose hop was still below the BFS's limit.
    */
  final case class Result(linksAdded: Long, capHits: Long)

  /** One thread's scratch: generation stamps (one per BFS, one per target's
    * set `A`) avoid clearing O(n) arrays between the O(n/K) targets. A BFS
    * enqueues each vertex once, so `queue(0 until tail)` lists its visits.
    * The arrays grow to the largest `n` the thread has run on and are kept
    * for its later targets.
    */
  private final class Scratch {
    var dp = new Array[Double](0)
    var hop = new Array[Int](0)
    var mono = new Array[Boolean](0)
    var queue = new Array[Int](0)
    var tail = 0
    var a = new Array[Int](0) // A's ids, in the order found
    var aSize = 0
    var pivs = new Array[Int](0) // the hop->=2 pivots of the 3-hop BFS
    var tmp = new Array[Int](0) // the merge buffer of `sortByDist`
    private var visitGen = new Array[Int](0)
    private var aGen = new Array[Int](0)
    private var bfs = 0
    private var target = 0

    /** Sizes the arrays for a graph of `n` vertices. */
    def fit(n: Int): Unit = if (dp.length < n) {
      dp = new Array[Double](n); hop = new Array[Int](n); mono = new Array[Boolean](n)
      queue = new Array[Int](n); a = new Array[Int](n); pivs = new Array[Int](n); tmp = new Array[Int](n)
      visitGen = new Array[Int](n); aGen = new Array[Int](n)
      bfs = 0; target = 0
    }

    def beginBfs(): Unit = {
      if (bfs == Int.MaxValue) { java.util.Arrays.fill(visitGen, 0); bfs = 0 }
      bfs += 1; tail = 0
    }
    def seen(v: Int): Boolean = visitGen(v) == bfs
    def enqueue(v: Int): Unit = { visitGen(v) = bfs; queue(tail) = v; tail += 1 }

    /** Starts target `p`'s empty `A`, which `p` and `direct(from until
      * until)` never enter.
      */
    def beginTarget(p: Int, direct: Array[Int], from: Int, until: Int): Unit = {
      if (target == Int.MaxValue) { java.util.Arrays.fill(aGen, 0); target = 0 }
      target += 1; aSize = 0
      aGen(p) = target
      var i = from
      while (i < until) { aGen(direct(i)) = target; i += 1 }
    }
    def addToA(v: Int): Unit = if (aGen(v) != target) { aGen(v) = target; a(aSize) = v; aSize += 1 }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** One target's chain `p :: A`, and the BFSes the cap cut short. */
  private final case class Chain(ids: Array[Int], capHits: Int)

  /** Mutates `adj`. */
  def run(
      space: MetricSpace,
      adj: AdjacencyStore,
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      k0: Int,
      runner: ParRunner,
      seed: Long,
  ): Result = {
    val n = adj.n
    val k = math.max(2, k0)
    val rng = new Random(seed)

    // ---- pivot-weighted sample of |P'| = O(n/K) targets ----------------
    // the first nTargets / 2 of the shuffled pivots, then the shuffled rest,
    // each id once
    val nTargets = math.max(1, n / k)
    val pivotPool = Array.range(0, n).filter(v => isPivot(v) && !isExact(v))
    Shuffle.inPlace(pivotPool, pivotPool.length, rng)
    val restPool = Array.range(0, n).filter(v => !isExact(v))
    Shuffle.inPlace(restPool, restPool.length, rng)
    val targets = new Array[Int](nTargets)
    var nPicked = 0
    val picked = new Array[Boolean](n)
    def pick(v: Int): Unit =
      if (nPicked < nTargets && !picked(v)) { picked(v) = true; targets(nPicked) = v; nPicked += 1 }
    var i = 0
    while (i < math.min(nTargets / 2, pivotPool.length)) { pick(pivotPool(i)); i += 1 }
    restPool.foreach(pick)

    val maxA = k * k
    val pivotSample = math.min(k, 10)

    val chains = runner.mapIds(targets.take(nPicked), (space, adj.csr, isPivot, isExact, maxA, pivotSample)) {
      case ((sp, g, piv, exact, cap, nPiv), p) => chainFor(sp, g, piv, exact, p, cap, nPiv)
    }

    // ---- chain-link on the driver --------------------------------------
    var added = 0L
    def link(a: Int, b: Int): Unit = {
      if (a != b) {
        if (!isExact(a) && adj.add(a, b)) added += 1
        if (!isExact(b) && adj.add(b, a)) added += 1
      }
    }
    var capHits = 0L
    chains.foreach { chain =>
      val ids = chain.ids
      var i = 0
      while (i + 1 < ids.length) { link(ids(i), ids(i + 1)); i += 1 }
      capHits += chain.capHits
    }
    Result(added, capHits)
  }

  /** Kept for perfbench (see [[AdjacencyStore.editSets]]): [[run]] on
    * `LinkedHashSet` rows; returns the number of links added.
    */
  def run(
      space: MetricSpace,
      adj: Array[mutable.LinkedHashSet[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      k0: Int,
      runner: ParRunner,
      seed: Long,
  ): Long = AdjacencyStore.editSets(adj)(run(space, _, isPivot, isExact, k0, runner, seed).linksAdded)

  /** The chain `p :: A` for one target (`A` ascending by distance to `p`,
    * ties by id). Every id in `A` was found by a BFS from this target, so
    * `dp` holds its distance to `p` when `A` is sorted.
    */
  private def chainFor(
      space: MetricSpace,
      adj: Csr,
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      p: Int,
      maxA: Int,
      pivotSample: Int,
  ): Chain = {
    val sc = scratch.get()
    sc.fit(adj.off.length - 1)
    sc.beginTarget(p, adj.ids, adj.off(p), adj.off(p + 1))

    var capHits = getNonMonotonic(space, adj, p, p, 3, sc)
    // pivots "with small distances to p": found at hop >= 2 of the BFS,
    // excluding exact-list objects (Alg. 5 line 5 conditions); read off the
    // queue, in a stable sort, before the 2-hop BFSes reuse it
    var nPivs = 0
    var i = 0
    while (i < sc.tail) {
      val w = sc.queue(i)
      if (sc.hop(w) >= 2 && isPivot(w) && !isExact(w)) { sc.pivs(nPivs) = w; nPivs += 1 }
      i += 1
    }
    sortByDist(sc.pivs, nPivs, sc.dp, sc.tmp)
    i = 0
    while (i < math.min(nPivs, pivotSample)) {
      capHits += getNonMonotonic(space, adj, p, sc.pivs(i), 2, sc)
      i += 1
    }

    // ties by id: sort the ids, then stably by distance
    java.util.Arrays.sort(sc.a, 0, sc.aSize)
    sortByDist(sc.a, sc.aSize, sc.dp, sc.tmp)
    val len = math.min(sc.aSize, maxA)
    val chain = new Array[Int](1 + len)
    chain(0) = p
    System.arraycopy(sc.a, 0, chain, 1, len)
    Chain(chain, capHits)
  }

  /** Stable sort of `ids(0 until len)` ascending by `dp` (bottom-up merge
    * sort through `tmp`).
    */
  private def sortByDist(ids: Array[Int], len: Int, dp: Array[Double], tmp: Array[Int]): Unit = {
    var src = ids
    var dst = tmp
    var width = 1
    while (width < len) {
      var lo = 0
      while (lo < len) {
        val mid = math.min(lo + width, len)
        val hi = math.min(lo + 2 * width, len)
        var i = lo
        var j = mid
        var o = lo
        while (o < hi) {
          if (j >= hi || (i < mid && java.lang.Double.compare(dp(src(i)), dp(src(j))) <= 0)) {
            dst(o) = src(i); i += 1
          } else {
            dst(o) = src(j); j += 1
          }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    if (src ne ids) System.arraycopy(src, 0, ids, 0, len)
  }

  /** Hop-limited BFS from `start`, distances measured from `p`. Adds the
    * objects it found with no monotonic discovered path to `A`; returns 1
    * if [[MaxVisitsPerBfs]] cut it short, else 0.
    */
  private def getNonMonotonic(
      space: MetricSpace,
      adj: Csr,
      p: Int,
      start: Int,
      maxHops: Int,
      sc: Scratch,
  ): Int = {
    sc.beginBfs()
    sc.enqueue(start)
    sc.dp(start) = if (start == p) 0.0 else space.dist(p, start)
    sc.mono(start) = true
    sc.hop(start) = 0
    var head = 0

    while (head < sc.tail && head < MaxVisitsPerBfs) {
      val u = sc.queue(head)
      head += 1
      val hu = sc.hop(u)
      if (hu < maxHops) {
        val du = sc.dp(u)
        val mu = sc.mono(u)
        var i = adj.off(u)
        val end = adj.off(u + 1)
        while (i < end) {
          val w = adj.ids(i)
          if (!sc.seen(w)) {
            sc.enqueue(w)
            val dw = if (w == p) 0.0 else space.dist(p, w)
            sc.dp(w) = dw
            sc.mono(w) = mu && du <= dw
            sc.hop(w) = hu + 1
          } else if (!sc.mono(w) && mu && du <= sc.dp(w)) {
            sc.mono(w) = true // a second, monotonic path reached w
          }
          i += 1
        }
      }
    }

    var i = 0
    while (i < sc.tail) { if (!sc.mono(sc.queue(i))) sc.addToA(sc.queue(i)); i += 1 }
    // BFS order is by hop, so the head decides whether anything was left to expand
    if (head < sc.tail && sc.hop(sc.queue(head)) < maxHops) 1 else 0
  }
}
