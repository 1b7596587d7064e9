package repro.graph

/** Proximity graph over a [[repro.core.MetricSpace]], in compressed sparse
  * row (CSR) form: vertex `v`'s out-links are
  * `links(offsets(v) until offsets(v + 1))`, in the order the builder left
  * them (MRPG and NSW are undirected, so their links appear on both
  * endpoints; KGraph is the raw directed AKNN graph, as in the paper's
  * setup). Each link is stored once.
  *
  * @param offsets  `n + 1` ascending row starts, from 0 to `links.length`
  * @param links    every row's link targets, row after row
  * @param isPivot  vantage-point pivots from the VP-tree partitioning
  *                 (all false for NSW and KGraph); Greedy-Counting hops
  *                 through pivots even outside `r` (Alg. 2 lines 13–14)
  * @param isExact  for MRPG(-basic): whether a vertex carries an exact
  *                 K'-NN list (K-NN for MRPG-basic); `null` for graphs
  *                 without exact lists
  * @param exactLen the length of every exact list. An exact vertex's list
  *                 is the first `exactLen` ids of its own row, in ascending
  *                 distance order: the build starts its row from the list
  *                 and only ever appends to it
  * @param exactK   the largest k the exact lists decide directly (§5.5):
  *                 `K'` for MRPG, 0 for MRPG-basic and graphs without
  *                 exact lists
  */
final class ProximityGraph(
    val offsets: Array[Int],
    val links: Array[Int],
    val isPivot: Array[Boolean],
    val isExact: Array[Boolean],
    val exactLen: Int,
    val exactK: Int,
) extends Serializable {
  require(offsets.length >= 1 && offsets(0) == 0 && offsets(offsets.length - 1) == links.length,
    "offsets must run from 0 to links.length")
  require(isPivot.length == n && (isExact == null || isExact.length == n), "one flag per vertex")
  require(exactLen >= 0 && (0 until n).forall(v =>
    offsets(v) <= offsets(v + 1) && (!hasExactList(v) || degree(v) >= exactLen)),
    "rows must be ascending and each exact row must hold its exact list")

  def n: Int = offsets.length - 1

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def numLinks: Long = offsets(n)

  def hasExactList(v: Int): Boolean = isExact != null && isExact(v)

  /** A copy of `v`'s links, in row order. */
  def row(v: Int): Array[Int] = java.util.Arrays.copyOfRange(links, offsets(v), offsets(v + 1))

  /** A copy of `v`'s exact list, or `null` when `v` has none. */
  def exactList(v: Int): Array[Int] =
    if (hasExactList(v)) java.util.Arrays.copyOfRange(links, offsets(v), offsets(v) + exactLen) else null

  /** Index footprint in bytes (Table 6), as the layout holds it: 4 B per
    * link, 4 B per offset, and 1 B per vertex for each flag array.
    */
  def sizeBytes: Long =
    4L * links.length + 4L * offsets.length + n.toLong + (if (isExact != null) n.toLong else 0L)

  private def this(csr: (Array[Int], Array[Int]), isPivot: Array[Boolean], exactLists: Array[Array[Int]], exactK: Int) =
    this(csr._1, csr._2, isPivot, if (exactLists == null) null else exactLists.map(_ != null),
      ProximityGraph.exactLength(csr._1, csr._2, exactLists), exactK)

  /** Kept for perfbench's step replay, which builds its graph from row
    * arrays; delete with ROADMAP item 1, with [[adj]] and [[exactLists]].
    * Rejects an exact list that is not the prefix of its row, and exact
    * lists of unequal lengths.
    */
  def this(adj: Array[Array[Int]], isPivot: Array[Boolean], exactLists: Array[Array[Int]], exactK: Int) =
    this(ProximityGraph.flatten(adj), isPivot, exactLists, exactK)

  /** Kept for perfbench, which compares graphs row by row; delete with
    * ROADMAP item 1. Every row as a fresh array, built on each call: the
    * graph holds no copy, so Spark's size estimate of its broadcast stays
    * the layout's.
    */
  def adj: Array[Array[Int]] = Array.tabulate(n)(row)

  /** Kept for perfbench, like [[adj]]: `exactLists(v)` is [[exactList]]`(v)`,
    * and the whole is `null` for a graph without exact lists.
    */
  def exactLists: Array[Array[Int]] = if (isExact == null) null else Array.tabulate(n)(exactList)
}

object ProximityGraph {

  /** Graph with no pivots and no exact lists (KGraph / NSW). */
  def plain(offsets: Array[Int], links: Array[Int]): ProximityGraph =
    new ProximityGraph(offsets, links, new Array[Boolean](offsets.length - 1), null, 0, 0)

  /** [[plain]] over `rows`, each kept as it is. */
  def plain(rows: Array[Array[Int]]): ProximityGraph = {
    val (offsets, links) = flatten(rows)
    plain(offsets, links)
  }

  /** `rows` one after another, and where each starts. */
  private def flatten(rows: Array[Array[Int]]): (Array[Int], Array[Int]) = {
    val offsets = new Array[Int](rows.length + 1)
    var v = 0
    while (v < rows.length) { offsets(v + 1) = offsets(v) + rows(v).length; v += 1 }
    val links = new Array[Int](offsets(rows.length))
    v = 0
    while (v < rows.length) { System.arraycopy(rows(v), 0, links, offsets(v), rows(v).length); v += 1 }
    (offsets, links)
  }

  /** The length every list of `exactLists` has (0 if none has one), after
    * checking that each is the prefix of its vertex's row in
    * (`offsets`, `links`). `exactLists(v)` is `null` where `v` has no list;
    * `exactLists` is `null` where no vertex has one.
    */
  private[graph] def exactLength(offsets: Array[Int], links: Array[Int], exactLists: Array[Array[Int]]): Int = {
    if (exactLists == null) return 0
    require(exactLists.length == offsets.length - 1, "one exact-list slot per vertex")
    val lens = exactLists.iterator.filter(_ != null).map(_.length).distinct.toSeq
    require(lens.size <= 1, s"exact lists of unequal lengths ${lens.sorted.mkString(", ")}")
    val len = lens.headOption.getOrElse(0)
    exactLists.indices.foreach { v =>
      val list = exactLists(v)
      require(list == null || (offsets(v + 1) - offsets(v) >= len &&
        java.util.Arrays.equals(list, 0, len, links, offsets(v), offsets(v) + len)),
        s"the exact list of vertex $v is not the prefix of its row")
    }
    len
  }
}
