package repro.graph

import scala.collection.mutable

/** §5.4: remove redundant links via pivots.
  *
  * If two non-pivot objects are both linked to a common pivot, the link
  * between them is redundant for Greedy-Counting — the traversal passes
  * through the pivot (Alg. 2 lines 13–14 enqueue pivots unconditionally), so
  * both endpoints are still reached. Removing such links avoids repeated
  * accesses to common neighbors.
  *
  * Guard rails beyond the paper's description: links incident to exact-list
  * vertices are kept (their lists are exactly their K' nearest), and a link
  * is kept if removal would drop either endpoint below degree 2.
  */
object RemoveLinks {

  /** Mutates `adj`; returns the number of links removed (counting each
    * undirected link once).
    */
  def run(
      adj: Array[mutable.LinkedHashSet[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
  ): Long = {
    val n = adj.length
    var removed = 0L
    var p = 0
    while (p < n) {
      if (!isPivot(p) && !isExact(p)) {
        val pivotNbrs = adj(p).iterator.filter(isPivot(_)).toArray
        var i = 0
        while (i < pivotNbrs.length) {
          val piv = pivotNbrs(i)
          // common objects of p and the pivot that are themselves non-pivot
          val common = adj(p).iterator
            .filter(c => c != piv && !isPivot(c) && !isExact(c) && adj(piv).contains(c))
            .toArray
          var j = 0
          while (j < common.length) {
            val c = common(j)
            if (adj(p).contains(c) && adj(p).size > 2 && adj(c).size > 2) {
              adj(p) -= c
              adj(c) -= p
              removed += 1
            }
            j += 1
          }
          i += 1
        }
      }
      p += 1
    }
    removed
  }
}
