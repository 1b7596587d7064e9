package repro.core

import repro.graph.ProximityGraph

/** Algorithm 2 of the paper: greedy neighbor counting on a proximity graph.
  *
  * BFS from `p`; every first-visited vertex within `r` is counted and
  * expanded; counting stops at `k`. Vertices outside `r` are still expanded
  * when they are pivots (lines 13–14) — Remove-Links relies on pivot
  * pass-through, and pivots also bridge sparse regions. NSW and KGraph
  * graphs have no pivots, so on them this is plain BFS counting, the
  * paper's §6 setup for those graphs. Lemma 1: the returned count never
  * exceeds the true neighbor count, so filtering with it yields no false
  * negatives.
  */
object GreedyCounting {

  /** Returns the greedy count, capped at `k`, expanding every vertex
    * within `r` and every pivot of `g` (`g.isPivot`) outside it.
    * Allocation-free: the BFS runs on the calling thread's [[Scratch]].
    */
  def count(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int): Int = {
    val sc = scratch.get()
    val stamp = sc.begin(space.n)
    val seen = sc.seen
    val queue = sc.queue // each vertex enters at most once, so n slots suffice
    seen(p) = stamp
    queue(0) = p
    var head = 0
    var tail = 1
    var count = 0
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
            count += 1
            if (count >= k) return count
            queue(tail) = w; tail += 1
          } else if (g.isPivot(w)) {
            queue(tail) = w; tail += 1
          }
        }
        i += 1
      }
    }
    count
  }

  /** One thread's BFS state: vertex `v` is visited in the current count iff
    * `seen(v) == stamp`, so a new count only bumps the stamp instead of
    * clearing `n` entries. Both arrays grow to the largest `n` the thread
    * has counted on and are kept for its later counts.
    */
  private final class Scratch {
    var seen = new Array[Int](0)
    var queue = new Array[Int](0)
    private var stamp = 0

    /** The stamp of a new count over `n` vertices. */
    def begin(n: Int): Int = {
      if (seen.length < n) {
        seen = new Array[Int](n)
        queue = new Array[Int](n)
        stamp = 0
      } else if (stamp == Int.MaxValue) {
        java.util.Arrays.fill(seen, 0)
        stamp = 0
      }
      stamp += 1
      stamp
    }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

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
