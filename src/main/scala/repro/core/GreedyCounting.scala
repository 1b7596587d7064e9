package repro.core

import repro.graph.ProximityGraph

/** Algorithm 2 of the paper: greedy neighbor counting on a proximity graph.
  *
  * BFS from `p`; every first-visited vertex within `r` is counted and
  * expanded; counting stops at `k`. Vertices outside `r` are still expanded
  * when they are pivots (lines 13–14) — Remove-Links relies on pivot
  * pass-through, and pivots also bridge sparse regions — but only while
  * the walk has tested fewer vertices outside `r` since its latest hit (or
  * its start) than `p` has links. Without that bound an outlier's walk
  * floods the whole pivot network before it gives up. NSW and KGraph
  * graphs have no pivots, so on them this is plain BFS counting, the
  * paper's §6 setup for those graphs. Lemma 1: the returned count never
  * exceeds the true neighbor count, so filtering with it yields no false
  * negatives; the bound only lowers the count, so it keeps that.
  */
object GreedyCounting {

  /** Returns the greedy count, capped at `k`, expanding every vertex
    * within `r`, and every pivot of `g` (`g.isPivot`) outside it while
    * fewer than `g.adj(p).length` vertices tested before it since the
    * latest hit were outside `r`. A pivot the bound leaves unexpanded
    * marks the walk [[Walk.cut]]. Allocation-free: the BFS runs on the
    * calling thread's [[Walk]], which keeps the verdict of every vertex it
    * tested until the thread's next count ([[walkFrom]]).
    */
  def count(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int): Int = {
    val walk = scratch.get()
    val stamp = walk.begin(space, p, r)
    val seen = walk.seen
    val hit = walk.hit
    val queue = walk.queue // each vertex enters at most once, so n slots suffice
    val bound = g.adj(p).length
    seen(p) = stamp
    queue(0) = p
    var head = 0
    var tail = 1
    var count = 0
    var miss = 0 // vertices tested outside r since the latest hit
    while (head < tail) {
      val v = queue(head)
      head += 1
      val edges = g.adj(v)
      var i = 0
      while (i < edges.length) {
        val w = edges(i)
        if (seen(w) != stamp) {
          seen(w) = stamp
          if (space.within(p, w, r)) {
            hit(w) = stamp
            count += 1
            if (count >= k) return count
            miss = 0
            queue(tail) = w; tail += 1
          } else {
            if (g.isPivot(w)) {
              if (miss < bound) { queue(tail) = w; tail += 1 }
              else walk.cutShort = true
            }
            miss += 1
          }
        }
        i += 1
      }
    }
    count
  }

  /** The calling thread's latest walk, when it started at `p` on `space`
    * (the same instance) with radius `r`. Its verdicts are exact
    * `space.within(p, v, r)` results, which an exact counter may read in
    * place of evaluating the pair again ([[ExactCounter.count]]).
    */
  def walkFrom(space: MetricSpace, p: Int, r: Double): Walk = {
    val walk = scratch.get()
    require(walk.isFrom(space, p, r), s"the thread's latest walk did not start at $p with radius $r on this space")
    walk
  }

  /** One thread's BFS state, and the verdicts its latest count left: vertex
    * `v` was tested in that count iff `seen(v) == stamp`, and found within
    * `r` of the source iff also `hit(v) == stamp`. A new count only bumps
    * the stamp instead of clearing `n` entries. The arrays grow to the
    * largest `n` the thread has counted on and are kept for its later
    * counts.
    */
  final class Walk private[GreedyCounting] {
    private[GreedyCounting] var seen = new Array[Int](0)
    private[GreedyCounting] var hit = new Array[Int](0)
    private[GreedyCounting] var queue = new Array[Int](0)
    private[GreedyCounting] var stamp = 0
    private var space: MetricSpace = null
    private var source = -1
    private var radius = Double.NaN

    /** Verdicts counters read instead of evaluating them, over the thread's life. */
    private[core] var reused = 0L

    private[GreedyCounting] var cutShort = false

    /** Whether the latest count's bound left a pivot outside `r` unexpanded. */
    def cut: Boolean = cutShort

    /** Whether the latest count tested `v` (the source counts as tested). */
    def decided(v: Int): Boolean = seen(v) == stamp

    /** Whether the latest count found `v` within `r`; meaningful if [[decided]]. */
    def inRange(v: Int): Boolean = hit(v) == stamp

    /** Whether the latest count started at `p` on `sp` with radius `r`. */
    def isFrom(sp: MetricSpace, p: Int, r: Double): Boolean = (space eq sp) && source == p && radius == r

    /** The stamp of a new count from `p` over `sp`'s `n` vertices. On the
      * stamp's wrap both `seen` and `hit` are cleared: a mark left from
      * before the wrap would otherwise read as a verdict of a later count.
      */
    private[GreedyCounting] def begin(sp: MetricSpace, p: Int, r: Double): Int = {
      val n = sp.n
      if (seen.length < n) {
        seen = new Array[Int](n)
        hit = new Array[Int](n)
        queue = new Array[Int](n)
        stamp = 0
      } else if (stamp == Int.MaxValue) {
        java.util.Arrays.fill(seen, 0)
        java.util.Arrays.fill(hit, 0)
        stamp = 0
      }
      stamp += 1
      space = sp; source = p; radius = r
      cutShort = false
      stamp
    }
  }

  private val scratch = ThreadLocal.withInitial[Walk](() => new Walk)

  /** Sets the stamp the calling thread's next count bumps: a test drives it
    * to the wrap.
    */
  private[core] def setStamp(stamp: Int): Unit = scratch.get().stamp = stamp

  /** §5.5 direct decision for an object carrying an exact K'-NN list: counts
    * how many of the listed nearest neighbors are within `r` (capped at `k`).
    * Exact in both directions when `k <= K'`: if fewer than `k` of the true
    * `K'` nearest are within `r`, the k-th NN is beyond `r`.
    */
  def countExactList(space: MetricSpace, list: Array[Int], p: Int, r: Double, k: Int): Int = {
    var count = 0
    var i = 0
    while (i < list.length && count < k) {
      if (space.within(p, list(i), r)) count += 1
      else return count // list is sorted by distance: nothing closer follows
      i += 1
    }
    count
  }
}
