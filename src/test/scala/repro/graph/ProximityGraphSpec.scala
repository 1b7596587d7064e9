package repro.graph

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite
import repro.core.LocalRunner
import repro.data.Datasets

/** The CSR layout's checks, and its size accounting against Spark's. */
class ProximityGraphSpec extends AnyFunSuite {

  private val rows = Array(Array(1, 2), Array(0, 2), Array(0))
  private val noPivots = new Array[Boolean](3)

  test("the row-array constructor keeps exact lists that are their rows' prefixes") {
    val g = new ProximityGraph(rows, noPivots, Array(Array(1), Array(0), null), 1)
    assert(g.exactLen == 1 && g.isExact.sameElements(Array(true, true, false)))
    assert(g.exactList(0).sameElements(Array(1)) && g.exactList(2) == null)
    assert(g.row(0).sameElements(Array(1, 2)))
  }

  test("the row-array constructor rejects an exact list that is not its row's prefix") {
    for (lists <- Seq(
      Array(Array(2, 1), null, null), // the row's ids, in another order
      Array(Array(2), null, null), // a link of the row, but not its first
      Array(Array(1, 2), null, Array(0, 1)), // longer than its row
      Array(Array(1, 2), Array(0), null), // lists of unequal lengths
    )) assertThrows[IllegalArgumentException](new ProximityGraph(rows, noPivots, lists, 2))
  }

  test("the CSR constructor rejects offsets that do not describe the links") {
    assertThrows[IllegalArgumentException](ProximityGraph.plain(Array(0, 2, 1, 3), Array(1, 2, 0)))
    assertThrows[IllegalArgumentException](ProximityGraph.plain(Array(0, 1, 2), Array(1, 0, 0)))
    // an exact row shorter than exactLen
    assertThrows[IllegalArgumentException](
      new ProximityGraph(Array(0, 2, 3), Array(1, 0, 0), new Array[Boolean](2), Array(false, true), 2, 2))
  }

  test("sizeBytes is within 160 B of Spark's estimate for every graph") {
    // sizeBytes counts what the arrays hold; SizeEstimator adds the graph's
    // object header and fields, four array headers and their 8-byte padding
    val runner = new LocalRunner(4)
    for (spec <- Seq(Datasets.deep, Datasets.words)) {
      val space = spec.space(0.05)
      val k = spec.graphK
      val graphs = Seq(
        "MRPG" -> MRPG.build(space, k, runner, seed = spec.seed)._1,
        "MRPG-basic" -> MRPG.build(space, k, runner, seed = spec.seed, basic = true)._1,
        "NSW" -> NSW.build(space, f = math.max(2, k / 2), seed = spec.seed),
        "KGraph" -> KGraphBuilder.build(space, k, runner, seed = spec.seed),
      )
      for ((name, g) <- graphs) {
        val gap = SizeEstimator.estimate(g) - g.sizeBytes
        assert(gap >= 0 && gap <= 160, s"${spec.name} $name: sizeBytes ${g.sizeBytes}, estimate off by $gap B")
      }
    }
  }
}
