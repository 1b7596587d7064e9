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

  /** Mutates `adj`, visiting the non-pivots in id order (removals change
    * the degrees later vertices see); returns the number of links removed
    * (counting each undirected link once).
    */
  def run(adj: AdjacencyStore, isPivot: Array[Boolean], isExact: Array[Boolean]): Long = {
    val n = adj.n
    var removed = 0L
    // inPivot(c) == stamp iff c is in the current pivot's row
    val inPivot = new Array[Int](n)
    var stamp = 0
    var pivotNbrs = new Array[Int](0)
    var common = new Array[Int](0)
    var p = 0
    while (p < n) {
      if (!isPivot(p) && !isExact(p)) {
        if (pivotNbrs.length < adj.end(p)) {
          pivotNbrs = new Array[Int](adj.end(p)); common = new Array[Int](adj.end(p))
        }
        var nPiv = 0
        var s = 0
        while (s < adj.end(p)) {
          val w = adj.slots(p)(s)
          if (w != AdjacencyStore.Gone && isPivot(w)) { pivotNbrs(nPiv) = w; nPiv += 1 }
          s += 1
        }
        var i = 0
        while (i < nPiv) {
          val piv = pivotNbrs(i)
          stamp += 1
          s = 0
          while (s < adj.end(piv)) { val w = adj.slots(piv)(s); if (w != AdjacencyStore.Gone) inPivot(w) = stamp; s += 1 }
          // common objects of p and the pivot that are themselves non-pivot,
          // in p's row order
          var nCommon = 0
          s = 0
          while (s < adj.end(p)) {
            val c = adj.slots(p)(s)
            if (c != AdjacencyStore.Gone && c != piv && !isPivot(c) && !isExact(c) && inPivot(c) == stamp) {
              common(nCommon) = c; nCommon += 1
            }
            s += 1
          }
          var j = 0
          while (j < nCommon) {
            val c = common(j)
            if (adj.size(p) > 2 && adj.size(c) > 2 && adj.remove(p, c)) {
              adj.remove(c, p)
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

  /** Kept for perfbench (see [[AdjacencyStore.editSets]]): [[run]] on
    * `LinkedHashSet` rows.
    */
  def run(
      adj: Array[mutable.LinkedHashSet[Int]],
      isPivot: Array[Boolean],
      isExact: Array[Boolean],
  ): Long = AdjacencyStore.editSets(adj)(run(_, isPivot, isExact))
}
