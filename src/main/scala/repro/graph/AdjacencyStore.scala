package repro.graph

import scala.collection.mutable

/** A proximity graph's adjacency while it is built: NSW's insertions, and
  * MRPG's Connect-SubGraphs, Remove-Detours and Remove-Links edit it. One
  * dense `Int` row per vertex, holding each id at most once, in the order the
  * ids were added.
  *
  * [[add]] appends an id its row does not hold. [[remove]] shifts the ids
  * after it one slot left, so the ids left keep their order and a re-added
  * id goes to the end: the iteration order of a `mutable.LinkedHashSet`
  * under the same calls. The row of `v` is `ids(v)(0 until size(v))`; rows
  * grow by doubling. [[contains]] scans the row; rows hold O(K) ids, hubs a
  * few hundred.
  *
  * The store is driver-side scratch: [[toRows]] copies it into a graph's
  * `adj`.
  */
final class AdjacencyStore(val n: Int) {
  private val rows = Array.fill(n)(AdjacencyStore.NoIds)
  private val sizes = new Array[Int](n)

  /** The number of ids in row `v`. */
  def size(v: Int): Int = sizes(v)

  /** Row `v`'s ids in `0 until size(v)`. The array is the row's own, and
    * [[add]] may replace it; read it, never write it.
    */
  private[graph] def ids(v: Int): Array[Int] = rows(v)

  private def indexOf(v: Int, u: Int): Int = {
    val row = rows(v)
    val e = sizes(v)
    var i = 0
    while (i < e) { if (row(i) == u) return i; i += 1 }
    -1
  }

  def contains(v: Int, u: Int): Boolean = indexOf(v, u) >= 0

  /** Appends `u` to row `v` unless the row holds it; true if it was added. */
  def add(v: Int, u: Int): Boolean = {
    if (contains(v, u)) return false
    val e = sizes(v)
    if (e == rows(v).length) rows(v) = java.util.Arrays.copyOf(rows(v), math.max(8, 2 * e))
    rows(v)(e) = u
    sizes(v) = e + 1
    true
  }

  /** Removes `u` from row `v`; true if the row held it. */
  def remove(v: Int, u: Int): Boolean = {
    val i = indexOf(v, u)
    if (i < 0) return false
    System.arraycopy(rows(v), i + 1, rows(v), i, sizes(v) - i - 1)
    sizes(v) -= 1
    true
  }

  /** Row `v`'s ids, in order. */
  def row(v: Int): Array[Int] = java.util.Arrays.copyOf(rows(v), sizes(v))

  /** Every row as its own array: a graph's `adj`. */
  def toRows: Array[Array[Int]] = Array.tabulate(n)(row)
}

object AdjacencyStore {

  private val NoIds = new Array[Int](0)

  /** A store holding `rows(v)`'s ids in row `v`, in order, each once. */
  def of(rows: Array[Array[Int]]): AdjacencyStore = {
    val store = new AdjacencyStore(rows.length)
    var v = 0
    while (v < rows.length) { rows(v).foreach(store.add(v, _)); v += 1 }
    store
  }

  /** Kept for perfbench's step replay, which edits `LinkedHashSet` rows;
    * delete with ROADMAP item 1. Runs `step` on a store made from `adj` and
    * writes the rows back in order.
    */
  private[graph] def editSets(adj: Array[mutable.LinkedHashSet[Int]])(step: AdjacencyStore => Long): Long = {
    val store = of(adj.map(_.toArray))
    val res = step(store)
    adj.indices.foreach { v => adj(v).clear(); adj(v) ++= store.row(v) }
    res
  }
}
