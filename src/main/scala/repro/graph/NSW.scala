package repro.graph

import repro.core.MetricSpace
import scala.collection.mutable
import scala.util.Random

/** Navigable Small World graph [Malkov et al., Inf. Systems'14].
  *
  * Incremental construction: objects are inserted in random order; each new
  * object runs `f` greedy searches from random entry points (the number of
  * searches tracks the link count, as in the original construction),
  * collects every evaluated vertex, and links bidirectionally to the `f`
  * closest.
  * The construction is inherently sequential (each insertion must see the
  * links of its predecessors) — the paper stresses NSW cannot use
  * multi-threading, and Table 3's build times depend on that, so this
  * implementation deliberately runs on the driver only.
  *
  * The paper sets NSW's link count so its memory matches KGraph; with
  * `f = K/2` bidirectional links the average degree is ~K.
  */
object NSW {

  def build(space: MetricSpace, f: Int, seed: Long = 7L): ProximityGraph = {
    val n = space.n
    val rng = new Random(seed)
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    val order = rng.shuffle((0 until n).toList).toArray

    var t = 0
    while (t < order.length) {
      val q = order(t)
      if (t > 0) {
        val friends = searchFriends(space, adj, order, t, q, f, rng)
        friends.foreach { u =>
          if (!adj(q).contains(u)) adj(q) += u
          if (!adj(u).contains(q)) adj(u) += q
        }
      }
      t += 1
    }
    ProximityGraph.plain(adj.map(_.toArray))
  }

  /** `f` greedy descents toward `q`; returns the `f` closest evaluated
    * vertices across all of them.
    */
  private def searchFriends(
      space: MetricSpace,
      adj: Array[mutable.ArrayBuffer[Int]],
      order: Array[Int],
      inserted: Int,
      q: Int,
      f: Int,
      rng: Random,
  ): Seq[Int] = {
    val evaluated = mutable.HashMap.empty[Int, Double]
    def d(u: Int): Double = evaluated.getOrElseUpdate(u, space.dist(q, u))

    var a = 0
    while (a < f) {
      var cur = order(rng.nextInt(inserted))
      var curD = d(cur)
      var improved = true
      while (improved) {
        improved = false
        val edges = adj(cur)
        var i = 0
        var best = cur
        var bestD = curD
        while (i < edges.length) {
          val w = edges(i)
          val dw = d(w)
          if (dw < bestD) { best = w; bestD = dw }
          i += 1
        }
        if (best != cur) { cur = best; curD = bestD; improved = true }
      }
      a += 1
    }
    evaluated.toSeq.sortBy { case (id, dd) => (dd, id) }.take(f).map(_._1)
  }
}
