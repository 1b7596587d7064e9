package repro.graph

import repro.core.{MetricSpace, Shuffle}
import scala.collection.mutable
import scala.util.Random

/** Navigable Small World graph [Malkov et al., Inf. Systems'14].
  *
  * Incremental construction: objects are inserted in random order; each new
  * object runs `f` greedy searches from random entry points (the number of
  * searches tracks the link count, as in the original construction),
  * collects every evaluated vertex, and links bidirectionally to the `f`
  * closest. The links go into an [[AdjacencyStore]], and each search is
  * [[ConnectSubgraphs.greedyAnnSearch]] without a hop limit.
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
    val rng = new Random(seed)
    val adj = new AdjacencyStore(space.n)
    val order = Shuffle.range(space.n, rng)

    var t = 1
    while (t < order.length) {
      val q = order(t)
      searchFriends(space, adj, order, t, q, f, rng).foreach { u =>
        adj.add(q, u)
        adj.add(u, q)
      }
      t += 1
    }
    ProximityGraph.plain(adj.toRows)
  }

  /** `f` greedy descents toward `q`, which no row holds yet; returns the `f`
    * closest evaluated vertices across all of them.
    */
  private def searchFriends(
      space: MetricSpace,
      adj: AdjacencyStore,
      order: Array[Int],
      inserted: Int,
      q: Int,
      f: Int,
      rng: Random,
  ): Seq[Int] = {
    val evaluated = mutable.HashMap.empty[Int, Double]
    val d = (u: Int) => evaluated.getOrElseUpdate(u, space.dist(q, u))
    var a = 0
    while (a < f) {
      ConnectSubgraphs.greedyAnnSearch(adj, order(rng.nextInt(inserted)), q, Int.MaxValue)(d)
      a += 1
    }
    evaluated.toSeq.sortBy { case (id, dd) => (dd, id) }.take(f).map(_._1)
  }
}
