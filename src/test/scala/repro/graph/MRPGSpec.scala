package repro.graph

import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, CountingSpace, EditDistance, GraphDOD, LocalRunner, MetricSpace, Shared,
  SharingRecorder, SparkRunner, StringSpace, VectorMetric}

/** The full MRPG pipeline: the three §5 properties, connectivity, stats. */
class MRPGSpec extends SparkSpec {

  private val runner = new LocalRunner(4)
  private lazy val space = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 51, outlierFrac = 0.03)
  private lazy val (graph, stats) = MRPG.build(space, 8, runner, seed = 5, maxIters = 5)
  private lazy val (basicGraph, _) = MRPG.build(space, 8, runner, seed = 5, basic = true, maxIters = 5)

  test("Property 1: every vertex keeps links to (approximate) nearest neighbors") {
    val rng = new scala.util.Random(52)
    val linkD = (0 until 300).map { _ =>
      val v = rng.nextInt(space.n)
      val es = graph.row(v)
      space.dist(v, es(rng.nextInt(es.length)))
    }
    val randD = (0 until 300).map(_ => space.dist(rng.nextInt(space.n), rng.nextInt(space.n)))
    assert(linkD.sum / linkD.size < 0.5 * randD.sum / randD.size)
  }

  test("Property 2 infrastructure: pivots exist and are a small fraction") {
    val pivots = graph.isPivot.count(identity)
    assert(pivots > 0)
    assert(pivots < space.n / 2)
  }

  test("Property 3: exact lists exist, have length K' = 4K, and are exact") {
    assert(graph.exactK == 32)
    val withLists = (0 until space.n).filter(graph.hasExactList)
    assert(withLists.nonEmpty)
    withLists.take(10).foreach { v =>
      assert(graph.exactList(v).toSeq == BruteForce.knn(space, v, 32).toSeq)
    }
  }

  test("MRPG-basic exact lists have length K (not K')") {
    assert(basicGraph.exactK == 0) // they seed links but decide nothing (§6 setup)
    val v = (0 until space.n).find(basicGraph.hasExactList).get
    assert(basicGraph.exactList(v).length == 8)
  }

  test("graph is connected (undirected reachability covers all vertices)") {
    // traversal over the union of out-links and in-links (exact-list
    // vertices keep directed lists; connectivity holds on the undirected view)
    val undirected = Array.fill(space.n)(scala.collection.mutable.HashSet.empty[Int])
    for (v <- 0 until space.n; u <- graph.row(v)) { undirected(v) += u; undirected(u) += v }
    val visited = new java.util.BitSet(space.n)
    val q = new java.util.ArrayDeque[Integer]()
    visited.set(0); q.add(0)
    var count = 0
    while (!q.isEmpty) {
      val v = q.poll().intValue(); count += 1
      undirected(v).foreach(u => if (!visited.get(u)) { visited.set(u); q.add(u) })
    }
    assert(count == space.n)
  }

  test("no self loops, duplicates, or out-of-range links") {
    for (v <- 0 until space.n) {
      val es = graph.row(v)
      assert(!es.contains(v))
      assert(es.distinct.length == es.length)
      es.foreach(u => assert(u >= 0 && u < space.n))
    }
  }

  test("space complexity is O(nK): total links bounded") {
    assert(graph.numLinks <= 8L * space.n * 8L, s"links=${graph.numLinks}")
    assert(graph.sizeBytes > 0)
  }

  test("build stats: all phases timed, pipeline mutated the graph") {
    assert(stats.nnDescentMs >= 0 && stats.connectMs >= 0)
    assert(stats.removeDetoursMs >= 0 && stats.removeLinksMs >= 0)
    assert(stats.totalMs == stats.nnDescentMs + stats.connectMs + stats.removeDetoursMs + stats.removeLinksMs)
    assert(stats.iterations >= 1)
    assert(stats.linksAddedConnect > 0) // reverse links always get added
  }

  test("build is deterministic in the seed") {
    val (a, _) = MRPG.build(space, 6, runner, seed = 9, maxIters = 3)
    val (b, _) = MRPG.build(space, 6, runner, seed = 9, maxIters = 3)
    assert((0 until space.n).forall(v => a.row(v).sameElements(b.row(v))))
  }

  test("SparkRunner and LocalRunner build identical graphs under tied distances") {
    // edit distances tie constantly, so the driver-side merges only agree if
    // both runners hand back chunk results in the same order
    val ss = TestSpaces.strings(600, seed = 55)
    val (a, _) = MRPG.build(ss, 8, new SparkRunner(spark, 4), seed = 12, maxIters = 4)
    val (b, _) = MRPG.build(ss, 8, new LocalRunner(4), seed = 12, maxIters = 4)
    def same(x: Array[Int], y: Array[Int]) = java.util.Arrays.equals(x, y)
    assert(a.isPivot.sameElements(b.isPivot))
    assert((0 until ss.n).forall(v => same(a.exactList(v), b.exactList(v))))
    assert((0 until ss.n).forall(v => same(a.row(v), b.row(v))))
  }

  test("graphs do not depend on the chunk count") {
    // each local-join chunk reuses the distances it knows, so the evaluation
    // counts may differ with the chunk count; the graphs may not
    def same(x: ProximityGraph, y: ProximityGraph): Boolean =
      x.offsets.sameElements(y.offsets) && x.links.sameElements(y.links) && x.isPivot.sameElements(y.isPivot) &&
        java.util.Arrays.equals(x.isExact, y.isExact) && x.exactLen == y.exactLen && x.exactK == y.exactK
    for ((name, s) <- Seq(
      "L2" -> TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 58),
      "tie-heavy strings" -> TestSpaces.strings(400, seed = 59),
    )) {
      def builds(p: Int): (ProximityGraph, ProximityGraph) = {
        val r = new LocalRunner(p)
        (MRPG.build(s, 8, r, seed = 14, maxIters = 5)._1, KGraphBuilder.build(s, 8, r, seed = 14, maxIters = 5))
      }
      val (mrpg, kgraph) = builds(1)
      for (p <- Seq(2, 3, 4, 8, 16)) {
        val (m, kg) = builds(p)
        assert(same(m, mrpg), s"$name: MRPG under LocalRunner($p)")
        assert(same(kg, kgraph), s"$name: KGraph under LocalRunner($p)")
      }
    }
  }

  private def isSpace(v: Any): Boolean = v.asInstanceOf[AnyRef] eq space

  /** Whether `v` is, or is a product holding, a value `p` accepts. */
  private def holds(v: Any)(p: Any => Boolean): Boolean = p(v) || (v match {
    case t: Product => t.productIterator.exists(holds(_)(p))
    case _ => false
  })

  test("a build shares the space once, for NNDescent+ and Remove-Detours") {
    val recording = new SharingRecorder(4)
    val (g, _) = MRPG.build(space, 8, recording, seed = 5, maxIters = 5)
    assert((0 until space.n).forall(v => g.row(v).sameElements(graph.row(v))))
    assert(recording.shared.count(isSpace) == 1)
    assert(!recording.shared.exists(v => !isSpace(v) && holds(v)(isSpace)), "a call's data carries the space again")
    assert(!recording.shared.exists(holds(_)(_.isInstanceOf[Shared[_]])), "a call's data carries a handle")
  }

  test("two builds in a row on one space share it once") {
    val recording = new SharingRecorder(4)
    KGraphBuilder.build(space, 8, recording, seed = 5, maxIters = 5)
    MRPG.build(space, 8, recording, seed = 5, basic = true, maxIters = 5)
    MRPG.build(space, 8, recording, seed = 5, maxIters = 5)
    assert(recording.shared.count(isSpace) == 1)
  }

  test("exact-list vertices' adjacency equals their exact list") {
    // Connect-SubGraphs' phase 2 may add one link beyond the list (see its
    // scaladoc); on this fixture it adds none
    val withLists = (0 until space.n).filter(graph.hasExactList)
    assert(withLists.nonEmpty)
    for (v <- withLists) {
      // the list is the row's prefix, and here the whole row
      assert(graph.row(v).take(graph.exactLen).sameElements(BruteForce.knn(space, v, 32)), s"vertex $v")
      assert(graph.row(v).toSet == graph.exactList(v).toSet, s"vertex $v")
    }
  }

  test("MRPG works on string spaces end to end") {
    val ss = TestSpaces.strings(300, seed = 53)
    val (g, _) = MRPG.build(ss, 6, runner, seed = 10, maxIters = 3)
    val res = repro.core.GraphDOD.detectLocal(ss, g, 4.0, 6)
    assert(res.outliers.toSeq == BruteForce.outliers(ss, 4.0, 6).toSeq)
  }

  test("MRPG filtering beats KGraph filtering (fewer false positives), clustered data") {
    val kg = KGraphBuilder.build(space, 8, runner, seed = 5, maxIters = 5)
    val r = 8.0; val k = 8
    val mrpgRes = repro.core.GraphDOD.detectLocal(space, graph, r, k)
    val kgRes = repro.core.GraphDOD.detectLocal(space, kg, r, k)
    assert(mrpgRes.falsePositives <= kgRes.falsePositives,
      s"MRPG fp=${mrpgRes.falsePositives} vs KGraph fp=${kgRes.falsePositives}")
  }

  test("small-n edge cases build and stay exact") {
    for (n <- Seq(5, 12, 40)) {
      val s = TestSpaces.uniform(n, 3, VectorMetric.L2, seed = 54 + n)
      val (g, _) = MRPG.build(s, 4, runner, seed = 11, maxIters = 2)
      val res = repro.core.GraphDOD.detectLocal(s, g, 30.0, 2)
      assert(res.outliers.toSeq == BruteForce.outliers(s, 30.0, 2).toSeq, s"n=$n")
    }
  }

  test("one- and two-object spaces: MRPG and KGraph build and stay exact") {
    for (n <- Seq(1, 2)) {
      val spaces = Seq(
        TestSpaces.uniform(n, 3, VectorMetric.L2, seed = 56 + n),
        new StringSpace(Array("kitten", "sitting").take(n)))
      for (s <- spaces; k <- Seq(1, 2)) {
        val (mrpg, _) = MRPG.build(s, 4, runner, seed = 11, maxIters = 2)
        val kg = KGraphBuilder.build(s, 4, runner, seed = 11, maxIters = 2)
        val r = 3.0
        val truth = BruteForce.outliers(s, r, k).toSeq
        if (n == 1) assert(truth == Seq(0))
        val fromMrpg = GraphDOD.detectLocal(s, mrpg, r, k).outliers.toSeq
        val fromKg = GraphDOD.detectLocal(s, kg, r, k).outliers.toSeq
        assert(fromMrpg == truth, s"MRPG n=$n k=$k ${s.getClass.getSimpleName}")
        assert(fromKg == truth, s"KGraph n=$n k=$k ${s.getClass.getSimpleName}")
      }
    }
  }

  test("the bit-parallel edit kernel builds the same MRPG with the same counts as the DP") {
    val words = TestSpaces.strings(600, seed = 57).words
    val dp = new MetricSpace {
      val n: Int = words.length
      def dist(i: Int, j: Int): Double = EditDistance(words(i), words(j)).toDouble
      def roundingSlack: Double = 0.0
    }
    val viaKernel = new CountingSpace(new StringSpace(words))
    val viaDp = new CountingSpace(dp)
    val (a, _) = MRPG.build(viaKernel, 8, runner, seed = 13, maxIters = 4)
    val (b, _) = MRPG.build(viaDp, 8, runner, seed = 13, maxIters = 4)
    def same(x: Array[Int], y: Array[Int]) = java.util.Arrays.equals(x, y)
    assert(a.isPivot.sameElements(b.isPivot))
    assert((0 until words.length).forall(v => same(a.exactList(v), b.exactList(v))))
    assert((0 until words.length).forall(v => same(a.row(v), b.row(v))))
    assert(viaKernel.evaluations == viaDp.evaluations)
  }
}

