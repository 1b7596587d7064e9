package repro.graph

import scala.collection.mutable

/** Per-vertex id lists in compressed sparse row form: row `v` is
  * `ids(off(v) until off(v + 1))`.
  */
private[graph] final case class Csr(off: Array[Int], ids: Array[Int])

/** MRPG's adjacency while Connect-SubGraphs, Remove-Detours and Remove-Links
  * edit it: one `Int` row per vertex, holding each id at most once, in the
  * order the ids were added.
  *
  * [[add]] appends an id its row does not hold. [[remove]] overwrites the
  * id's slot with [[AdjacencyStore.Gone]] and lowers the row's live count,
  * so the ids left keep their order and a re-added id goes to the end: the
  * iteration order of a `mutable.LinkedHashSet` under the same calls. The
  * row of `v` is `slots(v)(0 until end(v))` without the tombstones; rows
  * grow by doubling. [[contains]] scans the row; rows hold O(K) ids, hubs a
  * few hundred.
  *
  * The store is driver-side scratch: [[csr]] takes a flat snapshot of it,
  * and [[toRows]] compacts it once into a graph's `adj`.
  */
final class AdjacencyStore(val n: Int) {
  private val rows = Array.fill(n)(AdjacencyStore.NoSlots)
  private val ends = new Array[Int](n)
  private val live = new Array[Int](n)

  /** The number of ids in row `v`. */
  def size(v: Int): Int = live(v)

  /** Row `v`'s slots in use: ids, and [[AdjacencyStore.Gone]] where one was
    * removed. The array is the row's own; read it, never write it.
    */
  private[graph] def slots(v: Int): Array[Int] = rows(v)

  /** The number of slots of row `v` in use. */
  private[graph] def end(v: Int): Int = ends(v)

  private def indexOf(v: Int, u: Int): Int = {
    val row = rows(v)
    val e = ends(v)
    var i = 0
    while (i < e) { if (row(i) == u) return i; i += 1 }
    -1
  }

  def contains(v: Int, u: Int): Boolean = indexOf(v, u) >= 0

  /** Appends `u` to row `v` unless the row holds it; true if it was added. */
  def add(v: Int, u: Int): Boolean = {
    if (contains(v, u)) return false
    val e = ends(v)
    if (e == rows(v).length) rows(v) = java.util.Arrays.copyOf(rows(v), math.max(8, 2 * e))
    rows(v)(e) = u
    ends(v) = e + 1
    live(v) += 1
    true
  }

  /** Removes `u` from row `v`; true if the row held it. */
  def remove(v: Int, u: Int): Boolean = {
    val i = indexOf(v, u)
    if (i < 0) return false
    rows(v)(i) = AdjacencyStore.Gone
    live(v) -= 1
    true
  }

  /** Row `v`'s ids, in order. */
  def row(v: Int): Array[Int] = {
    val out = new Array[Int](live(v))
    val slot = rows(v)
    var j = 0
    var i = 0
    while (i < ends(v)) {
      if (slot(i) != AdjacencyStore.Gone) { out(j) = slot(i); j += 1 }
      i += 1
    }
    out
  }

  /** Every row, in order, in one flat snapshot. */
  private[graph] def csr: Csr = {
    val off = new Array[Int](n + 1)
    var v = 0
    while (v < n) { off(v + 1) = off(v) + live(v); v += 1 }
    val ids = new Array[Int](off(n))
    v = 0
    while (v < n) {
      val slot = rows(v)
      var j = off(v)
      var i = 0
      while (i < ends(v)) {
        if (slot(i) != AdjacencyStore.Gone) { ids(j) = slot(i); j += 1 }
        i += 1
      }
      v += 1
    }
    Csr(off, ids)
  }

  /** Every row as its own array: a graph's `adj`. */
  def toRows: Array[Array[Int]] = Array.tabulate(n)(row)
}

object AdjacencyStore {

  /** The mark of a removed id's slot. */
  private[graph] val Gone = -1

  private val NoSlots = new Array[Int](0)

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
