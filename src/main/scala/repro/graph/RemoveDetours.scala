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
  * [[ParRunner.mapIds]] over a copy of the adjacency's rows (each chunk's
  * generation-stamped scratch arrays keep its BFSes allocation-free); the
  * chains are linked on the driver, in target order.
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

  /** One chunk's scratch for a graph of `n` vertices: generation stamps
    * (one per BFS, one per target for its set `A` and its distance memo)
    * avoid clearing O(n) arrays between the chunk's targets. A chunk runs at
    * most n/2 targets (there are `max(1, n / max(2, K))` in all) of at most
    * 11 BFSes each (one 3-hop BFS and up to 10 2-hop ones), so the target
    * stamp stays at most n/2 and the BFS stamp at most 5.5·n: neither wraps
    * below n = 390 M. A BFS enqueues each vertex once, so
    * `queue(0 until tail)` lists its visits. `dp(v)` holds `dist(p, v)` for
    * the current target `p` once `v` is stamped, so a target's BFSes
    * evaluate each distance once.
    */
  private final class Scratch(n: Int) {
    val dp = new Array[Double](n)
    val hop = new Array[Int](n)
    val mono = new Array[Boolean](n)
    val queue = new Array[Int](n)
    var tail = 0
    val a = new Array[Int](n) // A's ids, in the order found
    var aSize = 0
    val pivs = new Array[Int](n) // the hop->=2 pivots of the 3-hop BFS
    val tmp = new Array[Int](n) // the merge buffer of `sortByDist`
    private val visitGen = new Array[Int](n)
    private val aGen = new Array[Int](n)
    private val dpGen = new Array[Int](n)
    private var bfs = 0
    private var target = 0

    def beginBfs(): Unit = { bfs += 1; tail = 0 }
    def seen(v: Int): Boolean = visitGen(v) == bfs
    def enqueue(v: Int): Unit = { visitGen(v) = bfs; queue(tail) = v; tail += 1 }

    /** Starts target `p`'s empty `A`, which `p` and its `direct` links
      * never enter.
      */
    def beginTarget(p: Int, direct: Array[Int]): Unit = {
      target += 1; aSize = 0
      aGen(p) = target
      var i = 0
      while (i < direct.length) { aGen(direct(i)) = target; i += 1 }
    }
    def addToA(v: Int): Unit = if (aGen(v) != target) { aGen(v) = target; a(aSize) = v; aSize += 1 }

    /** `dist(p, v)` for the current target `p`, evaluated on `v`'s first
      * call for this target and read from `dp` after (0 for `v == p`).
      */
    def distTo(space: MetricSpace, p: Int, v: Int): Double = {
      if (dpGen(v) != target) {
        dp(v) = if (v == p) 0.0 else space.dist(p, v)
        dpGen(v) = target
      }
      dp(v)
    }
  }

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

    val chains = runner.mapIds(targets.take(nPicked), space, (adj.toRows, isPivot, isExact, maxA, pivotSample)) {
      case (sp, (g, piv, exact, cap, nPiv)) =>
        val sc = new Scratch(g.length)
        p => chainFor(sp, g, piv, exact, p, cap, nPiv, sc)
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
      adj: Array[Array[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      p: Int,
      maxA: Int,
      pivotSample: Int,
      sc: Scratch,
  ): Chain = {
    sc.beginTarget(p, adj(p))

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
      adj: Array[Array[Int]],
      p: Int,
      start: Int,
      maxHops: Int,
      sc: Scratch,
  ): Int = {
    sc.beginBfs()
    sc.enqueue(start)
    sc.distTo(space, p, start)
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
        val row = adj(u)
        var i = 0
        while (i < row.length) {
          val w = row(i)
          if (!sc.seen(w)) {
            sc.enqueue(w)
            val dw = sc.distTo(space, p, w)
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
