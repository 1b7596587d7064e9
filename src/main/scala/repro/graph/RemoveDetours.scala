package repro.graph

import repro.core.{MetricSpace, ParRunner}
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
  * The per-target BFS is read-only, so targets are fanned out through the
  * [[ParRunner]] (generation-stamped scratch arrays keep each BFS
  * allocation-free); link additions are applied on the driver.
  */
object RemoveDetours {

  val MaxVisitsPerBfs = 4096 // safety bound, |A| is O(K^2) per the paper

  /** Per-chunk scratch: generation stamps (one per BFS, one per target's
    * set `A`) avoid clearing O(n) arrays between the O(n/K) targets. A BFS
    * enqueues each vertex once, so `queue(0 until tail)` lists its visits.
    */
  private final class Scratch(n: Int) {
    val dp = new Array[Double](n)
    val hop = new Array[Int](n)
    val mono = new Array[Boolean](n)
    val queue = new Array[Int](n)
    var tail = 0
    val a = new Array[Int](n) // A's ids, in the order found
    var aSize = 0
    private val visitGen = new Array[Int](n)
    private val aGen = new Array[Int](n)
    private var bfs = 0
    private var target = 0

    def beginBfs(): Unit = { bfs += 1; tail = 0 }
    def seen(v: Int): Boolean = visitGen(v) == bfs
    def enqueue(v: Int): Unit = { visitGen(v) = bfs; queue(tail) = v; tail += 1 }

    /** Starts target `p`'s empty `A`, which `p` and `direct` never enter. */
    def beginTarget(p: Int, direct: Array[Int]): Unit = {
      target += 1; aSize = 0
      aGen(p) = target
      direct.foreach(aGen(_) = target)
    }
    def addToA(v: Int): Unit = if (aGen(v) != target) { aGen(v) = target; a(aSize) = v; aSize += 1 }
  }

  /** Mutates `adj`; returns the number of links added. */
  def run(
      space: MetricSpace,
      adj: Array[mutable.LinkedHashSet[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
      k0: Int,
      runner: ParRunner,
      seed: Long,
  ): Long = {
    val n = adj.length
    val k = math.max(2, k0)
    val rng = new Random(seed)

    // ---- pivot-weighted sample of |P'| = O(n/K) targets ----------------
    val nTargets = math.max(1, n / k)
    val pivotPool = rng.shuffle((0 until n).filter(v => isPivot(v) && !isExact(v)).toList)
    val restPool = rng.shuffle((0 until n).filter(v => !isExact(v)).toList)
    val targets =
      (pivotPool.take(nTargets / 2) ++ restPool).distinct.take(nTargets).toArray

    val adjArr = adj.map(_.toArray)
    val maxA = k * k
    val pivotSample = math.min(k, 10)

    val chains: Seq[Array[Array[Int]]] =
      runner.runWithData(
        targets.length,
        (space, adjArr, isPivot, isExact, targets, maxA, pivotSample),
      ) { (data, s, e) =>
        val (sp, g, piv, exact, tg, cap, nPiv) = data
        val scratch = new Scratch(g.length)
        (s until e).map(i => chainFor(sp, g, piv, exact, tg(i), cap, nPiv, scratch)).toArray
      }

    // ---- chain-link on the driver --------------------------------------
    var added = 0L
    def link(a: Int, b: Int): Unit = {
      if (a != b) {
        if (!isExact(a) && !adj(a).contains(b)) { adj(a) += b; added += 1 }
        if (!isExact(b) && !adj(b).contains(a)) { adj(b) += a; added += 1 }
      }
    }
    chains.flatten.foreach { chain =>
      var i = 0
      while (i + 1 < chain.length) { link(chain(i), chain(i + 1)); i += 1 }
    }
    added
  }

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
  ): Array[Int] = {
    sc.beginTarget(p, adj(p))
    val dp = sc.dp
    val byDist: Ordering[Int] = (x, y) => java.lang.Double.compare(dp(x), dp(y))

    getNonMonotonic(space, adj, p, p, 3, sc)
    // pivots "with small distances to p": found at hop >= 2 of the BFS,
    // excluding exact-list objects (Alg. 5 line 5 conditions); read off the
    // queue, in a stable sort, before the 2-hop BFSes reuse it
    val pivs = sc.queue.take(sc.tail)
      .filter(w => sc.hop(w) >= 2 && isPivot(w) && !isExact(w))
      .sorted(byDist)
      .take(pivotSample)
    pivs.foreach(pv => getNonMonotonic(space, adj, p, pv, 2, sc))

    p +: sc.a.take(sc.aSize).sorted(byDist.orElse(Ordering.Int)).take(maxA)
  }

  /** Hop-limited BFS from `start`, distances measured from `p`. Adds the
    * objects it found with no monotonic discovered path to `A`.
    */
  private def getNonMonotonic(
      space: MetricSpace,
      adj: Array[Array[Int]],
      p: Int,
      start: Int,
      maxHops: Int,
      sc: Scratch,
  ): Unit = {
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
        val edges = adj(u)
        var i = 0
        while (i < edges.length) {
          val w = edges(i)
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

    for (i <- 0 until sc.tail) if (!sc.mono(sc.queue(i))) sc.addToA(sc.queue(i))
  }
}
