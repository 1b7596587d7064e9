package repro.graph

import org.scalacheck.{Gen, Prop, Properties}

/** A graph built from row arrays gives the same rows back: through
  * [[ProximityGraph.plain]], and through the row-array constructor with
  * exact lists that are their rows' prefixes. The rows are drawn over
  * 1–12 vertices, so a graph of one vertex comes up often, and each row is
  * empty, a hub (every id, descending), or a few distinct ids. Neither
  * property shrinks: the generators keep ids inside `0 until n`, and a
  * shrunk row could step outside it.
  */
object ProximityGraphProps extends Properties("ProximityGraph") {

  private def row(n: Int): Gen[Array[Int]] = Gen.frequency(
    2 -> Gen.const(Array.empty[Int]),
    1 -> Gen.const(Array.range(0, n).reverse),
    4 -> Gen.listOf(Gen.choose(0, n - 1)).map(_.distinct.toArray),
  )

  private val rows: Gen[Array[Array[Int]]] = for {
    n <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 12))
    rs <- Gen.listOfN(n, row(n))
  } yield rs.toArray

  private def sameRows(a: Array[Array[Int]], b: Array[Array[Int]]): Boolean =
    a.length == b.length && a.indices.forall(v => java.util.Arrays.equals(a(v), b(v)))

  /** Rows, pivot flags, and exact lists of one length taken as the prefix
    * of some rows that are long enough (`null` elsewhere).
    */
  private val withExactLists = for {
    rs <- rows
    isPivot <- Gen.listOfN(rs.length, Gen.prob(0.2))
    len <- Gen.choose(0, rs.map(_.length).max)
    picks <- Gen.listOfN(rs.length, Gen.prob(0.5))
  } yield {
    val exact = rs.indices.map(v => if (picks(v) && rs(v).length >= len) rs(v).take(len) else null).toArray
    (rs, isPivot.toArray, exact, len)
  }

  property("plainRoundTrip") = Prop.forAllNoShrink(rows) { rs =>
    val g = ProximityGraph.plain(rs)
    val n = rs.length
    g.n == n && sameRows(g.adj, rs) && sameRows(Array.tabulate(n)(g.row), rs) &&
      (0 until n).forall(v => g.degree(v) == rs(v).length) && g.numLinks == rs.map(_.length).sum &&
      g.isExact == null && g.exactLists == null && !g.isPivot.contains(true) &&
      g.sizeBytes == 4L * g.numLinks + 4L * (n + 1) + n
  }

  property("exactListsRoundTrip") = Prop.forAllNoShrink(withExactLists) { case (rs, isPivot, exact, len) =>
    val g = new ProximityGraph(rs, isPivot, exact, 3)
    val n = rs.length
    val anyList = exact.exists(_ != null)
    sameRows(g.adj, rs) && g.isPivot.sameElements(isPivot) && g.exactK == 3 &&
      g.exactLen == (if (anyList) len else 0) &&
      (0 until n).forall(v => g.hasExactList(v) == (exact(v) != null)) &&
      (0 until n).forall(v => java.util.Arrays.equals(g.exactList(v), exact(v))) &&
      sameRows(g.exactLists, exact) &&
      g.sizeBytes == 4L * g.numLinks + 4L * (n + 1) + 2L * n
  }

  property("nonPrefixRejected") = Prop.forAllNoShrink(withExactLists) { case (rs, isPivot, exact, len) =>
    // -1 is in no row, so a list that starts with it is no row's prefix
    val v = exact.indexWhere(_ != null)
    (len == 0 || v < 0) || {
      val bad = exact.clone()
      bad(v) = -1 +: exact(v).tail
      scala.util.Try(new ProximityGraph(rs, isPivot, bad, 0)).failed.toOption.exists(_.isInstanceOf[IllegalArgumentException])
    }
  }
}
