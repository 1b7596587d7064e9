package repro.core

import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestSpaces}
import repro.core.{VectorMetric => VM}
import repro.data.Datasets
import repro.graph.{KGraphBuilder, MRPG, NSW, ProximityGraph}
import scala.util.Random

/** Algorithm 1 end-to-end: exactness for every proximity graph on every
  * scenario and several (r, k) settings, plus accounting invariants,
  * local/Spark-run equivalence and the payload kept across queries.
  */
class GraphDODSpec extends SparkSpec {

  private lazy val runner = new LocalRunner(4)

  // each graph carries its own detection setup (pivots, exactK)
  private final case class GraphCase(name: String, build: MetricSpace => ProximityGraph)

  private lazy val graphCases = Seq(
    GraphCase("NSW", s => NSW.build(s, f = 6, seed = 5)),
    GraphCase("KGraph", s => KGraphBuilder.build(s, 10, runner, seed = 5, maxIters = 4)),
    GraphCase("MRPG-basic", s => MRPG.build(s, 10, runner, seed = 5, basic = true, maxIters = 4)._1),
    GraphCase("MRPG", s => MRPG.build(s, 10, runner, seed = 5, basic = false, maxIters = 4)._1),
  )

  // cache graphs per (scenario, graph) — they are deterministic
  private val cache = scala.collection.mutable.HashMap.empty[(String, String), ProximityGraph]
  private def graphFor(s: TestSpaces.Scenario, gc: GraphCase): ProximityGraph =
    cache.getOrElseUpdate((s.name, gc.name), gc.build(s.space))

  for (s <- TestSpaces.scenarios(); gc <- graphCases) {
    test(s"${s.name}/${gc.name}: detectLocal is exact at the default (r, k)") {
      val g = graphFor(s, gc)
      val res = GraphDOD.detectLocal(s.space, g, s.r, s.k)
      val truth = BruteForce.outliers(s.space, s.r, s.k)
      assert(truth.nonEmpty, "scenario must contain outliers")
      assert(truth.length < s.space.n, "scenario must contain inliers")
      assert(res.outliers.toSeq == truth.toSeq)
    }

    test(s"${s.name}/${gc.name}: exact under varied r and k") {
      val g = graphFor(s, gc)
      for ((rf, k2) <- Seq((0.6, 3), (1.4, s.k), (1.0, 2 * s.k))) {
        val r2 = s.r * rf
        val res = GraphDOD.detectLocal(s.space, g, r2, k2)
        assert(res.outliers.toSeq == BruteForce.outliers(s.space, r2, k2).toSeq, s"r=$r2 k=$k2")
      }
    }
  }

  for (gc <- graphCases) {
    test(s"${gc.name}: accounting — candidates = falsePositives + verified outliers") {
      val s = TestSpaces.scenarios().head
      val g = graphFor(s, gc)
      val res = GraphDOD.detectLocal(s.space, g, s.r, s.k)
      val verifiedOutliers = res.outliers.length - res.directOutliers
      assert(res.candidates == res.falsePositives + verifiedOutliers)
      if (s.k > g.exactK) assert(res.directOutliers == 0) // no direct decision: NSW, KGraph, MRPG-basic
      if (!g.isPivot.contains(true)) assert(res.cutWalks == 0) // nothing to pass through: NSW, KGraph
    }
  }

  test("Spark detect equals detectLocal on every scenario (MRPG)") {
    for (s <- TestSpaces.scenarios()) {
      val (g, _) = MRPG.build(s.space, 10, runner, seed = 6, maxIters = 4)
      val local = GraphDOD.detectLocal(s.space, g, s.r, s.k)
      val dist = GraphDOD.detect(spark, s.space, g, s.r, s.k)
      assert(dist.outliers.toSeq == local.outliers.toSeq, s.name)
      assert(dist.candidates == local.candidates, s.name)
      assert(dist.falsePositives == local.falsePositives, s.name)
      assert(dist.directOutliers == local.directOutliers, s.name)
    }
  }

  test("Spark detect is invariant to the partition count") {
    val s = TestSpaces.scenarios()(1)
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 7, maxIters = 4)
    val results = Seq(1, 3, 16).map(p =>
      GraphDOD.detect(spark, s.space, g, s.r, s.k, partitions = p).outliers.toSeq)
    assert(results.distinct.size == 1)
  }

  test("VP-tree verification yields the same result as linear-scan verification") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 9, maxIters = 4)
    val tree = VPTree.build(s.space, 16, seed = 3)
    val a = GraphDOD.detectLocal(s.space, g, s.r, s.k, counter = LinearScanCounter())
    val b = GraphDOD.detectLocal(s.space, g, s.r, s.k, counter = VPTreeCounter(tree))
    assert(a.outliers.toSeq == b.outliers.toSeq)
    assert(a.falsePositives == b.falsePositives)
  }

  test("degenerate k=1 and huge k stay exact (MRPG)") {
    val s = TestSpaces.scenarios()(2)
    val (g, _) = MRPG.build(s.space, 8, runner, seed = 10, maxIters = 4)
    for (k <- Seq(1, s.space.n - 1)) {
      val res = GraphDOD.detectLocal(s.space, g, s.r, k)
      assert(res.outliers.toSeq == BruteForce.outliers(s.space, s.r, k).toSeq, s"k=$k")
    }
  }

  test("r=0 marks everything an outlier; huge r marks nothing (MRPG)") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 8, runner, seed = 11, maxIters = 4)
    val all = GraphDOD.detectLocal(s.space, g, 0.0, 2)
    assert(all.outliers.length == s.space.n)
    val none = GraphDOD.detectLocal(s.space, g, 1e9, 2)
    assert(none.outliers.isEmpty)
  }

  private lazy val smallCase = {
    val s = TestSpaces.scenarios().head
    (s, MRPG.build(s.space, 8, runner, seed = 12, maxIters = 4)._1)
  }

  test("run rejects k < 1") {
    val (s, g) = smallCase
    for (k <- Seq(0, -3)) {
      assertThrows[IllegalArgumentException](GraphDOD.run(runner, s.space, g, s.r, k))
      assertThrows[IllegalArgumentException](GraphDOD.detect(spark, s.space, g, s.r, k, partitions = 2))
    }
    // the boundary values stay valid
    val edge = GraphDOD.run(runner, s.space, g, 0.0, 1)
    assert(edge.outliers.toSeq == BruteForce.outliers(s.space, 0.0, 1).toSeq)
  }

  test("run rejects a negative r") {
    val (s, g) = smallCase
    assertThrows[IllegalArgumentException](GraphDOD.run(runner, s.space, g, -1e-9, s.k))
    assertThrows[IllegalArgumentException](GraphDOD.detectLocal(s.space, g, -s.r, s.k))
  }

  test("run rejects a NaN r") {
    val (s, g) = smallCase
    assertThrows[IllegalArgumentException](GraphDOD.run(runner, s.space, g, Double.NaN, s.k))
    assertThrows[IllegalArgumentException](GraphDOD.detectLocal(s.space, g, Double.NaN, s.k))
  }

  test("empty-adjacency graph still yields exact results (all candidates verified)") {
    val s = TestSpaces.scenarios().head
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    val res = GraphDOD.detectLocal(s.space, g, s.r, s.k)
    assert(res.outliers.toSeq == BruteForce.outliers(s.space, s.r, s.k).toSeq)
    assert(res.candidates == s.space.n) // nothing gets filtered
  }

  test("a better graph filters more: MRPG candidates <= empty-graph candidates") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 12, maxIters = 4)
    val res = GraphDOD.detectLocal(s.space, g, s.r, s.k)
    assert(res.candidates + res.directOutliers < s.space.n)
  }

  test("filtering time and verification time are reported non-negative") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 13, maxIters = 4)
    for (fanOut <- Seq(new LocalRunner(4), new SparkRunner(spark, 4))) {
      val res = GraphDOD.run(fanOut, s.space, g, s.r, s.k)
      assert(res.filterMs >= 0 && res.verifyMs >= 0)
      assert(res.totalMs == res.filterMs + res.verifyMs)
      assert(res.maxChunkMs >= res.meanChunkMs && res.meanChunkMs > 0)
    }
  }

  test("phase times split the wall time, and verifyMs is 0 when nothing is verified") {
    val s = TestSpaces.scenarios().head
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    // on the empty graph filtering evaluates no distance and verification
    // at least k per object, so at 10 µs per distance verification takes at
    // least 600 × 10 × 10 µs = 60 ms; LocalRunner runs its 4 chunks one
    // after another, inside the wall time
    val slow = new SlowSpace(s.space, burnNs = 10000L)
    val all = GraphDOD.run(new LocalRunner(4), slow, g, s.r, s.k)
    assert(all.candidates == s.space.n)
    assert(all.filterMs + all.verifyMs == all.totalMs)
    assert(all.meanChunkMs * 4 <= all.totalMs + 1.0)
    assert(all.verifyMs >= all.filterMs) // an empty graph filters nothing away
    for (fanOut <- Seq(new LocalRunner(4), new SparkRunner(spark, 4))) {
      val (sm, gm) = smallCase
      val none = GraphDOD.run(fanOut, sm.space, gm, 1e9, 2)
      assert(none.candidates == 0 && none.outliers.isEmpty)
      assert(none.verifyMs == 0)
      assert(none.filterMs == none.totalMs)
    }
  }

  test("a run under SparkRunner is one Spark job, verification included") {
    val s = TestSpaces.scenarios().head
    val g = ProximityGraph.plain(Array.fill(s.space.n)(Array.empty[Int]))
    val (res, jobs) = countingJobs {
      GraphDOD.run(new SparkRunner(spark, 4), s.space, g, s.r, s.k)
    }
    assert(res.candidates == s.space.n)
    assert(jobs == 1)
  }

  /** The live broadcasts of a run's payload (space, graph, counter, order) on `g`. */
  private def payloadsOf(g: ProximityGraph): Seq[AnyRef] = liveBroadcasts.collect {
    case t: Tuple4[_, _, _, _] if t._2.asInstanceOf[AnyRef] eq g => t
  }

  test("SparkRunner queries on one graph share one payload broadcast; LocalRunner runs keep it") {
    val s = TestSpaces.scenarios().head
    val (g, _) = MRPG.build(s.space, 10, runner, seed = 15, maxIters = 4)
    var kept: AnyRef = null
    // the default counter is a new, equal LinearScanCounter per call
    for ((rf, kq) <- Seq((1.0, s.k), (0.7, 3), (1.3, 2 * s.k))) {
      val r = s.r * rf
      val viaSpark = GraphDOD.detect(spark, s.space, g, r, kq, partitions = 4)
      val live = payloadsOf(g)
      assert(live.size == 1, s"r=$r k=$kq")
      if (kept == null) kept = live.head
      assert(live.head eq kept, s"r=$r k=$kq")
      val local = GraphDOD.detectLocal(s.space, g, r, kq)
      val afterLocal = payloadsOf(g)
      assert(afterLocal.size == 1 && (afterLocal.head eq kept), s"r=$r k=$kq")
      assert(viaSpark.outliers.toSeq == local.outliers.toSeq, s"r=$r k=$kq")
    }
  }

  test("runs interleaving graphs A, B, A replace the payload and match LocalRunner's outliers and counts") {
    val sa = TestSpaces.scenarios().head
    val sb = TestSpaces.scenarios()(1)
    val cases = Seq(sa, sb).map { s =>
      (s, new CountingSpace(s.space), MRPG.build(s.space, 10, runner, seed = 16, maxIters = 4)._1)
    }
    def dists[A](cs: CountingSpace)(body: => A): (A, Long) = {
      val before = cs.evaluations
      val a = body
      (a, cs.evaluations - before)
    }
    val payloads = scala.collection.mutable.ArrayBuffer.empty[AnyRef]
    for (((s, cs, g), step) <- Seq(cases(0), cases(1), cases(0)).zipWithIndex) {
      val (viaSpark, sparkDists) = dists(cs)(GraphDOD.detect(spark, cs, g, s.r, s.k, partitions = 4))
      val (local, localDists) = dists(cs)(GraphDOD.detectLocal(cs, g, s.r, s.k))
      assert(viaSpark.outliers.toSeq == local.outliers.toSeq, s"step $step")
      assert(viaSpark.outliers.toSeq == BruteForce.outliers(s.space, s.r, s.k).toSeq, s"step $step")
      assert(viaSpark.candidates == local.candidates, s"step $step")
      assert(viaSpark.falsePositives == local.falsePositives, s"step $step")
      assert(viaSpark.directOutliers == local.directOutliers, s"step $step")
      assert(sparkDists == localDists, s"step $step")
      val live = payloadsOf(g)
      assert(live.size == 1, s"step $step")
      payloads += live.head
      if (step > 0) {
        val previous = payloads(step - 1)
        eventually(timeout(10.seconds))(assert(!broadcastLive(previous), s"step $step"))
      }
    }
    assert(!(payloads(2) eq payloads(0)), "graph A's payload is shared anew after B's run")
  }

  test("the fused run spends exactly filterVerdict's evaluations plus the candidates' exact counts") {
    val spaces = Seq(
      ("l2", TestSpaces.clustered(400, 8, VM.L2, seed = 71), 9.0, 10),
      ("angular", TestSpaces.angular(400, 12, seed = 72), 0.12, 10),
      ("edit", TestSpaces.strings(300, seed = 73), 4.0, 8),
    )
    for ((name, base, r, k) <- spaces) {
      val (mrpg, _) = MRPG.build(base, 10, runner, seed = 14, maxIters = 4)
      val truth = BruteForce.outliers(base, r, k)
      for (
        counter <- Seq(LinearScanCounter(), VPTreeCounter(VPTree.build(base, 16, seed = 3)));
        // MRPG's graph, and the same graph with no direct decision
        g <- Seq(mrpg, new ProximityGraph(mrpg.offsets, mrpg.links, mrpg.isPivot, mrpg.isExact, mrpg.exactLen, 0));
        fanOut <- Seq(new LocalRunner(4), new SparkRunner(spark, 4))
      ) {
        val label = s"$name $counter exactK=${g.exactK} ${fanOut.getClass.getSimpleName}"
        // each candidate is counted right after its walk, reading its verdicts
        val expected = Replay(base, g, r, k, counter, reuse = true)
        val cs = new CountingSpace(base)
        val res = GraphDOD.run(fanOut, cs, g, r, k, counter = counter)
        if (g.exactK == 0) assert(expected.counts.nonEmpty, label) // the exact lists may decide every outlier
        assert(cs.evaluations == expected.evaluations, label)
        assert(res.evaluations == cs.evaluations, label)
        assert(res.reusedVerdicts == expected.reused, label)
        assert(res.cutWalks == expected.cut, label)
        assert(res.candidates == expected.counts.size, label)
        assert(res.outliers.toSeq == truth.toSeq, label)
      }
    }
  }

  test("filterVerdict's flagged overload forwards (true, true) and rejects every other pair") {
    val (s, g) = smallCase
    val walk = new GreedyCounting.Walk
    for (p <- 0 until s.space.n)
      assert(GraphDOD.filterVerdict(s.space, g, p, s.r, s.k, usePivotHop = true, useExactShortcut = true) ==
        GraphDOD.filterVerdict(s.space, g, p, s.r, s.k, walk))
    for ((hop, direct) <- Seq((false, true), (true, false), (false, false)))
      assertThrows[IllegalArgumentException](
        GraphDOD.filterVerdict(s.space, g, 0, s.r, s.k, usePivotHop = hop, useExactShortcut = direct))
  }

  test("cutWalks is 0 on NSW and KGraph and above 0 for MRPG on words, under both runners") {
    val base = Datasets.words.space(0.05)
    val graphs = Seq(
      "NSW" -> NSW.build(base, f = Datasets.words.graphK / 2, seed = Datasets.words.seed),
      "KGraph" -> KGraphBuilder.build(base, Datasets.words.graphK, runner, seed = Datasets.words.seed),
      "MRPG" -> MRPG.build(base, Datasets.words.graphK, runner, seed = Datasets.words.seed)._1,
    )
    for ((name, g) <- graphs; (r, k) <- TestSpaces.pinnedGrid(Datasets.words)) {
      val local = GraphDOD.run(runner, base, g, r, k)
      val viaSpark = GraphDOD.run(new SparkRunner(spark, 4), base, g, r, k)
      assert(viaSpark.cutWalks == local.cutWalks, s"$name r=$r k=$k")
      assert(local.outliers.toSeq == BruteForce.outliers(base, r, k).toSeq, s"$name r=$r k=$k")
      if (name == "MRPG") assert(local.cutWalks > 0, s"r=$r k=$k")
      else assert(local.cutWalks == 0, s"$name r=$r k=$k")
    }
  }

  // CountingSpace evaluations of each query of TestSpaces.pinnedGrid, in
  // grid order: every distance test counts once, whichever kernel answers
  // it, and verification reads the verdicts of the candidate's walk
  private val pinnedDetectionDists: Map[String, Seq[Long]] = Map(
    "deep" -> Seq(201775L, 402361L, 172266L, 355852L, 167051L, 334559L),
    "words" -> Seq(9187L, 17610L, 8133L, 15871L, 8016L, 16105L),
  )

  test("MRPG detection distance counts on deep and words (scale 0.05) are pinned") {
    val got = Seq(Datasets.deep, Datasets.words).map { spec =>
      val base = spec.space(0.05)
      val (g, _) = MRPG.build(base, spec.graphK, runner, seed = spec.seed)
      val counter =
        if (spec.vpVerify) VPTreeCounter(VPTree.build(base, capacity = 32, seed = spec.seed))
        else LinearScanCounter()
      spec.name -> TestSpaces.pinnedGrid(spec).map { case (r, k) =>
        val cs = new CountingSpace(base)
        val res = GraphDOD.run(runner, cs, g, r, k, counter = counter)
        assert(res.outliers.toSeq == BruteForce.outliers(base, r, k).toSeq, s"${spec.name} r=$r k=$k")
        // the run reports the evaluations it added to the fresh space
        assert(res.evaluations == cs.evaluations, s"${spec.name} r=$r k=$k")
        cs.evaluations
      }
    }.toMap
    assert(got == pinnedDetectionDists, got.map { case (n, ds) => s""""$n" -> Seq(${ds.mkString("", "L, ", "L")})""" })
  }

  test("random adversarial spaces: MRPG detection stays exact (20 draws)") {
    val rng = new Random(99)
    for (i <- 0 until 20) {
      val space = TestSpaces.uniform(120 + rng.nextInt(80), 3, VM.L2, seed = 1000 + i)
      val (g, _) = MRPG.build(space, 6, runner, seed = i, maxIters = 3)
      val r = 10.0 + rng.nextDouble() * 40.0
      val k = 1 + rng.nextInt(8)
      val res = GraphDOD.detectLocal(space, g, r, k)
      assert(res.outliers.toSeq == BruteForce.outliers(space, r, k).toSeq, s"draw $i r=$r k=$k")
    }
  }
}

/** `base`, with every distance evaluation busy-waiting `burnNs` first. */
private final class SlowSpace(base: MetricSpace, burnNs: Long) extends MetricSpace {
  def n: Int = base.n
  def dist(i: Int, j: Int): Double = {
    val end = System.nanoTime() + burnNs
    while (System.nanoTime() < end) {}
    base.dist(i, j)
  }
  def roundingSlack: Double = base.roundingSlack
}
