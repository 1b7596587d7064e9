package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.GreedyCounting.Walk
import repro.graph.ProximityGraph

/** Exact neighbor counting for the verification phase (`Exact-Counting` in
  * Algorithm 1): a linear scan for high-dimensional data, a VP-tree range
  * count for data with low intrinsic dimensionality. Both stop at `k`.
  *
  * `walk` is null, and every pair is evaluated, or it is the [[Walk]]
  * Greedy-Counting made last from `p` with the same `r` on the same `space`
  * (anything else is rejected): every object the walk tested is counted
  * from its verdict instead of evaluated again, and the verdicts read add
  * to `walk.reused`. The objects are visited in the same order either way
  * and the count stops at the same one, so the count is the same and a walk
  * saves exactly `walk.reused` evaluations.
  */
sealed trait ExactCounter extends Serializable {
  def count(space: MetricSpace, p: Int, r: Double, k: Int, walk: Walk): Int
  def sizeBytes: Long
}

/** The linear scan; also the sequential Nested-loop baseline's core
  * [Knorr & Ng, VLDB'98].
  */
final case class LinearScanCounter() extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int, walk: Walk): Int = {
    require(walk == null || walk.isFrom(space, p, r), s"a walk from $p with radius $r on this space is needed")
    var count = 0
    var reused = 0L
    var i = 0
    val n = space.n
    while (i < n && count < k) {
      if (i != p) {
        if (walk != null && walk.decided(i)) {
          reused += 1
          if (walk.inRange(i)) count += 1
        } else if (space.within(p, i, r)) count += 1
      }
      i += 1
    }
    if (walk != null) walk.reused += reused
    count
  }
  def sizeBytes = 0L
}

final case class VPTreeCounter(tree: VPTree) extends ExactCounter {
  def count(space: MetricSpace, p: Int, r: Double, k: Int, walk: Walk): Int =
    tree.rangeCount(space, p, r, k, walk)
  def sizeBytes: Long = tree.sizeBytes
}

/** The query every DOD detector answers: is `p` an outlier, having fewer
  * than `k` other objects within distance `r`?
  */
object DODQuery {
  /** Rejects a query no detector can answer: `k < 1`, or `r` negative or NaN. */
  def check(r: Double, k: Int): Unit = {
    require(k >= 1, s"k must be at least 1, got $k")
    require(r >= 0, s"r must be a non-negative number, got $r")
  }
}

/** Result of one DOD run.
  *
  * Filtering and verification overlap (each chunk verifies its own
  * candidates), so the run's wall time is split between the two phases in
  * proportion to the time the chunks' own clocks spent in each.
  *
  * @param outliers       detected outlier ids (sorted)
  * @param candidates     |P'| — objects that survived filtering (excludes
  *                       exact-list direct decisions)
  * @param falsePositives inliers among the candidates (Table 7's `f`)
  * @param directOutliers outliers decided by the exact-list shortcut (§5.5)
  * @param filterMs       filtering's share of the wall-clock [ms]
  * @param verifyMs       verification's share of the wall-clock [ms]
  * @param maxChunkMs     busy time of the slowest chunk [ms]
  * @param meanChunkMs    mean busy time of a chunk [ms]
  * @param evaluations    distance evaluations the run made (Table 5b's
  *                       cost), also added to the caller's space
  * @param reusedVerdicts (candidate, object) verdicts verification read
  *                       from the candidate's Greedy-Counting walk instead
  *                       of evaluating them: a run that evaluated them
  *                       would make `evaluations + reusedVerdicts`
  * @param cutWalks       Greedy-Counting walks whose bound left a pivot
  *                       outside `r` unexpanded ([[GreedyCounting.Walk.cut]]);
  *                       always 0 on a graph without pivots
  */
final case class DODResult(
    outliers: Array[Int],
    candidates: Int,
    falsePositives: Int,
    directOutliers: Int,
    filterMs: Long,
    verifyMs: Long,
    maxChunkMs: Double,
    meanChunkMs: Double,
    evaluations: Long,
    reusedVerdicts: Long,
    cutWalks: Int,
) {
  def totalMs: Long = filterMs + verifyMs
}

/** Algorithm 1: proximity-graph-based DOD — filtering by Greedy-Counting,
  * then exact verification of the candidates. Exact for any proximity graph
  * (Lemma 1: filtering has no false negatives). Unlike Algorithm 1 as the
  * paper writes it, verification does not evaluate again the pairs the
  * candidate's walk decided: it reads their verdicts, which are the same
  * `within` results bit for bit.
  */
object GraphDOD {

  // per-object filtering verdicts
  val Inlier = 0: Byte // filtered: proven inlier
  val Candidate = 1: Byte // needs verification
  val DirectOutlier = 2: Byte // exact-list shortcut says outlier
  val DirectInlier = 3: Byte // exact-list shortcut says inlier
  // a candidate's outcome after verification
  val VerifiedOutlier = 4: Byte
  val FalsePositive = 5: Byte

  /** One chunk's outcomes, in dealt order, the nanoseconds it spent
    * filtering and verifying, its distance evaluations, the walk verdicts
    * its verification read and its walks the bound cut.
    */
  private final case class ChunkOutcomes(
      outcomes: Array[Byte], filterNs: Long, verifyNs: Long, evaluations: Long, reused: Long, cut: Int)

  /** One object's filtering verdict (§4 filtering phase + §5.5 direct
    * decision). The graph carries its setup: an object with an exact list
    * is decided from it when `k <= g.exactK`, and Greedy-Counting passes
    * through `g`'s pivots. Unless the verdict is a direct decision, `walk`
    * holds `p`'s walk afterwards.
    */
  def filterVerdict(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int, walk: Walk): Byte = {
    if (g.hasExactList(p) && k <= g.exactK) {
      val c = GreedyCounting.countExactList(space, g.exactLists(p), p, r, k)
      if (c < k) DirectOutlier else DirectInlier
    } else {
      val c = GreedyCounting.count(space, g, p, r, k, walk)
      if (c < k) Candidate else Inlier
    }
  }

  /** [[filterVerdict]] for the one pair `(true, true)`, the setup every
    * graph carries itself, on a walk of the calling thread's own. Kept for
    * perfbench, which filters object by object outside any run; delete it
    * and its thread-local walk with ROADMAP item 1.
    */
  def filterVerdict(space: MetricSpace, g: ProximityGraph, p: Int, r: Double, k: Int,
      usePivotHop: Boolean, useExactShortcut: Boolean): Byte = {
    require(usePivotHop && useExactShortcut, "the graph carries its detection setup; only (true, true) is accepted")
    filterVerdict(space, g, p, r, k, shimWalk.get())
  }

  private val shimWalk = ThreadLocal.withInitial[Walk](() => new Walk)

  /** Algorithm 1 over a [[ParRunner]], in one fan-out (one Spark job): the
    * ids are dealt to chunks in [[ParRunner.mapIds]]' random order, as the
    * paper assigns objects to threads, and each chunk verifies a candidate
    * as soon as it has filtered it. No barrier is needed between the
    * phases, because filtering never drops a true outlier (Lemma 1). The
    * graph decides the setup ([[filterVerdict]]): pivot pass-through where
    * it has pivots, the §5.5 direct decision for `k <= g.exactK`. Each
    * chunk makes one [[Walk]] and counts every object on it, and a
    * candidate's exact count reads the verdicts its walk left, so
    * verification evaluates only the pairs the walk did not decide, and a
    * VP-tree's vantage points.
    *
    * Space, graph, counter and deal order reach the chunks as one payload,
    * shared through [[ParRunner.shareFor]] under the key (space, graph,
    * counter): an MRPG depends only on `K`, so every (r, k) query on the
    * same graph reads the payload shared by the first. Under
    * [[SparkRunner]] it stays broadcast until a run on another key, or
    * until the context stops; space and graph must not change once
    * detected on. Each chunk counts its evaluations ([[ChunkCount]]); the
    * run adds their sum to `space` and reports it. Rejects invalid queries
    * ([[DODQuery.check]]).
    */
  def run(
      runner: ParRunner,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      counter: ExactCounter = LinearScanCounter(),
  ): DODResult = {
    DODQuery.check(r, k)
    val n = space.n
    val t0 = System.nanoTime()
    val payload = runner.shareFor(Seq(space, g, counter))((space, g, counter, ParRunner.permutation(n)))
    val order = payload.value._4
    val chunks = try runner.runShared(n, payload) { case ((shared, gg, ec, ord), s, e) =>
      val sp = new ChunkCount(shared)
      val walk = new Walk
      val outcomes = new Array[Byte](e - s)
      var verifyNs = 0L
      var reused = 0L
      var cut = 0
      val c0 = System.nanoTime()
      var i = s
      while (i < e) {
        val p = ord(i)
        var o = filterVerdict(sp, gg, p, r, k, walk)
        if ((o == Candidate || o == Inlier) && walk.cut) cut += 1 // not a direct decision: walk is p's
        if (o == Candidate) {
          val v0 = System.nanoTime()
          o = if (ec.count(sp, p, r, k, walk) < k) VerifiedOutlier else FalsePositive
          reused += walk.reused
          verifyNs += System.nanoTime() - v0
        }
        outcomes(i - s) = o
        i += 1
      }
      ChunkOutcomes(outcomes, System.nanoTime() - c0 - verifyNs, verifyNs, sp.evaluations, reused, cut)
    } finally payload.release()
    val wallMs = (System.nanoTime() - t0) / 1000000L
    val evaluations = chunks.map(_.evaluations).sum
    CountingSpace.add(space, evaluations)

    val outcome = new Array[Byte](n)
    var pos = 0
    chunks.foreach(_.outcomes.foreach { o => outcome(order(pos)) = o; pos += 1 })
    def count(o: Byte): Int = outcome.count(_ == o)
    val falsePositives = count(FalsePositive)

    val filterNs = chunks.map(_.filterNs).sum
    val busyNs = filterNs + chunks.map(_.verifyNs).sum
    val filterMs = if (busyNs == 0) wallMs else math.round(wallMs * (filterNs.toDouble / busyNs))
    val chunkMs = chunks.map(c => (c.filterNs + c.verifyNs) / 1e6)
    DODResult(
      Array.range(0, n).filter(p => outcome(p) == DirectOutlier || outcome(p) == VerifiedOutlier),
      candidates = count(VerifiedOutlier) + falsePositives,
      falsePositives = falsePositives,
      directOutliers = count(DirectOutlier),
      filterMs = filterMs,
      verifyMs = wallMs - filterMs,
      maxChunkMs = chunkMs.maxOption.getOrElse(0.0),
      meanChunkMs = if (chunkMs.isEmpty) 0.0 else chunkMs.sum / chunkMs.size,
      evaluations = evaluations,
      reusedVerdicts = chunks.map(_.reused).sum,
      cutWalks = chunks.map(_.cut).sum,
    )
  }

  /** Driver-local run (no Spark) — used by property tests and as the
    * reference the Spark run must match.
    */
  def detectLocal(
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      counter: ExactCounter = LinearScanCounter(),
  ): DODResult =
    run(new LocalRunner(), space, g, r, k, counter)

  /** Spark run: the paper's multi-threading (§4) with `partitions` chunks
    * (default: the session's parallelism) as threads.
    */
  def detect(
      spark: SparkSession,
      space: MetricSpace,
      g: ProximityGraph,
      r: Double,
      k: Int,
      counter: ExactCounter = LinearScanCounter(),
      partitions: Int = 0,
  ): DODResult =
    run(new SparkRunner(spark, partitions), space, g, r, k, counter)
}
