package repro.graph

/** Adjacency-list proximity graph over a [[repro.core.MetricSpace]].
  *
  * @param adj        per-vertex link targets (out-links; MRPG/NSW are
  *                   undirected so links appear on both endpoints, KGraph is
  *                   the raw directed AKNN graph as in the paper's setup)
  * @param isPivot    vantage-point pivots from the VP-tree partitioning
  *                   (empty/false for NSW and KGraph); Greedy-Counting hops
  *                   through pivots even outside `r` (Alg. 2 lines 13–14)
  * @param exactLists for MRPG(-basic): `exactLists(v)` is `v`'s *exact*
  *                   K'-NN id list (K-NN for MRPG-basic) in ascending
  *                   distance order, or `null` when `v` carries only
  *                   approximate links
  * @param exactK     the largest k the exact lists decide directly (§5.5):
  *                   `K'` for MRPG, 0 for MRPG-basic and graphs without
  *                   exact lists
  */
final class ProximityGraph(
    val adj: Array[Array[Int]],
    val isPivot: Array[Boolean],
    val exactLists: Array[Array[Int]],
    val exactK: Int,
) extends Serializable {

  def n: Int = adj.length

  def numLinks: Long = {
    var s = 0L; var i = 0
    while (i < adj.length) { s += adj(i).length; i += 1 }
    s
  }

  def hasExactList(v: Int): Boolean = exactLists != null && exactLists(v) != null

  /** Approximate index footprint in bytes (Table 6): 4B per link id plus
    * per-vertex array headers, the pivot bitmap, and the exact lists.
    */
  def sizeBytes: Long = {
    var bytes = numLinks * 4L + n.toLong * 20L + n.toLong
    if (exactLists != null) {
      var i = 0
      while (i < n) {
        if (exactLists(i) != null) bytes += 16L + exactLists(i).length * 4L
        i += 1
      }
    }
    bytes
  }
}

object ProximityGraph {
  /** Graph with no pivots and no exact lists (KGraph / NSW). */
  def plain(adj: Array[Array[Int]]): ProximityGraph =
    new ProximityGraph(adj, new Array[Boolean](adj.length), null, 0)
}
