package repro.graph

import org.apache.spark.SparkException
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, TestSpaces}
import repro.core.{BruteForce, CopyingRunner, CountingSpace, LocalRunner, MetricSpace, ParRunner, Shared, Shuffle,
  SparkRunner, VectorMetric, VectorSpace}
import scala.collection.mutable
import scala.reflect.ClassTag
import scala.util.Random

/** AKNN graph quality and the NNDescent+ extensions. */
class NNDescentSpec extends SparkSpec {

  private lazy val runner = new LocalRunner(4)

  /** Tie-aware recall: an entry counts when its distance is within the true
    * k-th NN distance (discrete metrics like edit distance have massive ties,
    * so id-based recall would under-report).
    */
  private def recall(space: repro.core.MetricSpace, res: AKnnResult, k: Int, samples: Int = 60): Double = {
    val rng = new scala.util.Random(5)
    val hits = (0 until samples).map { _ =>
      val p = rng.nextInt(space.n)
      val kth = BruteForce.knn(space, p, k).map(space.dist(p, _)).max
      res.nbrId(p).count(u => space.dist(p, u) <= kth + 1e-12).toDouble / k
    }
    hits.sum / samples
  }

  private def cfgKGraph(k: Int) =
    NNDescentConfig(K = k, vpInit = false, skipUnchanged = false, maxIters = 8, seed = 1L)
  private def cfgPlus(k: Int) =
    NNDescentConfig(K = k, vpInit = true, skipUnchanged = true, maxIters = 8, seed = 1L)

  for ((name, space) <- Seq(
    "l2" -> TestSpaces.clustered(800, 8, VectorMetric.L2, seed = 61),
    "angular" -> TestSpaces.angular(800, 12, seed = 62),
    "edit" -> TestSpaces.strings(500, seed = 63),
  )) {
    test(s"$name: plain NNDescent reaches recall@10 >= 0.7") {
      val res = NNDescent.build(space, cfgKGraph(10), runner)
      assert(recall(space, res, 10) >= 0.7)
    }

    test(s"$name: NNDescent+ reaches recall@10 >= 0.7") {
      val res = NNDescent.build(space, cfgPlus(10), runner)
      assert(recall(space, res, 10) >= 0.7)
    }

    test(s"$name: lists are sorted ascending, deduplicated, and self-free") {
      val res = NNDescent.build(space, cfgPlus(10), runner)
      for (v <- 0 until space.n) {
        val ids = res.nbrId(v)
        val ds = ids.map(space.dist(v, _))
        assert(!ids.contains(v))
        assert(ids.distinct.length == ids.length)
        assert(ds.sameElements(ds.sorted))
      }
    }
  }

  test("every vertex ends with exactly K links (n > K)") {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 64)
    val res = NNDescent.build(space, cfgPlus(8), runner)
    assert((0 until space.n).forall(v => res.nbrId(v).length == 8))
  }

  test("K is clamped when n - 1 < K") {
    val space = TestSpaces.uniform(6, 3, VectorMetric.L2, seed = 65)
    val res = NNDescent.build(space, cfgPlus(10), runner)
    assert((0 until 6).forall(v => res.nbrId(v).length == 5))
  }

  test("VP-tree initialization marks pivots; random initialization does not") {
    val space = TestSpaces.clustered(600, 6, VectorMetric.L2, seed = 66)
    val plus = NNDescent.build(space, cfgPlus(8), runner)
    val plain = NNDescent.build(space, cfgKGraph(8), runner)
    assert(plus.isPivot.count(identity) > 0)
    assert(plus.isPivot.count(identity) < space.n / 2)
    assert(plain.isPivot.forall(!_))
  }

  test("build is deterministic in the seed") {
    val space = TestSpaces.clustered(300, 5, VectorMetric.L2, seed = 67)
    val a = NNDescent.build(space, cfgPlus(6), runner)
    val b = NNDescent.build(space, cfgPlus(6), runner)
    assert((0 until space.n).forall(v => a.nbrId(v).sameElements(b.nbrId(v))))
  }

  test("LocalRunner and SparkRunner build identical graphs") {
    val space = TestSpaces.clustered(300, 5, VectorMetric.L2, seed = 68)
    val local = NNDescent.build(space, cfgPlus(6), new LocalRunner(4))
    val viaSpark = NNDescent.build(space, cfgPlus(6), new SparkRunner(spark, 4))
    assert((0 until space.n).forall(v => local.nbrId(v).sameElements(viaSpark.nbrId(v))))
    assert(local.exactLists == null && viaSpark.exactLists == null)
  }

  /** The driver's live broadcasts whose value is `value`. */
  private def broadcastsOf(value: AnyRef): Int = liveBroadcasts.count {
    case v: AnyRef => v eq value
    case _ => false
  }

  /** Asserts that `space` is broadcast exactly once, kept under its key, and
    * that a `shareFor` with another key frees it.
    */
  private def assertKeptUntilAnotherKey(space: AnyRef): Unit = {
    assert(broadcastsOf(space) == 1)
    new SparkRunner(spark, 4).shareFor(Seq(new Object))(0).release()
    eventually(timeout(10.seconds))(assert(!broadcastLive(space)))
  }

  test("a SparkRunner build runs iterations + 1 jobs and keeps one broadcast of the space until another key") {
    val space = TestSpaces.clustered(800, 8, VectorMetric.L2, seed = 61)
    val cfg = cfgPlus(10).copy(exactListSize = 30, exactCount = 40)
    val (res, jobs) = countingJobs(NNDescent.build(space, cfg, new SparkRunner(spark, 4)))
    assert(res.iterations > 1)
    assert(jobs == res.iterations + 1)
    assertKeptUntilAnotherKey(space)
  }

  test("a build whose chunk fails surfaces the error and keeps one broadcast of the space until another key") {
    val base = TestSpaces.clustered(300, 8, VectorMetric.L2, seed = 64)
    val initOnly = new CountingSpace(base)
    NNDescent.build(initOnly, cfgPlus(10).copy(maxIters = 0), new LocalRunner(4))
    val failing = new FailingSpace(base, failAfter = initOnly.evaluations + 100)
    val err = intercept[SparkException](NNDescent.build(failing, cfgPlus(10), new SparkRunner(spark, 4)))
    assert(err.getMessage.contains("distance failed"))
    assertKeptUntilAnotherKey(failing)
  }

  test("exact K'-NN retrieval produces truly exact sorted lists for m objects") {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 69, outlierFrac = 0.05)
    val cfg = cfgPlus(8).copy(exactListSize = 24, exactCount = 30)
    val res = NNDescent.build(space, cfg, runner)
    val withLists = (0 until space.n).filter(res.exactLists(_) != null)
    assert(withLists.size == 30)
    withLists.foreach { v =>
      assert(res.exactLists(v).toSeq == BruteForce.knn(space, v, 24).toSeq, s"vertex $v")
    }
  }

  test("exact lists go to the objects with the largest AKNN distance sums") {
    val space = TestSpaces.clustered(400, 6, VectorMetric.L2, seed = 70, outlierFrac = 0.06)
    val cfg = cfgPlus(8).copy(exactListSize = 16, exactCount = 24)
    val res = NNDescent.build(space, cfg, runner)
    val sums = (0 until space.n).map(v => res.nbrId(v).map(space.dist(v, _)).sum)
    val chosen = (0 until space.n).filter(res.exactLists(_) != null)
    val minChosen = chosen.map(sums).min
    val unchosenAbove = (0 until space.n)
      .filter(res.exactLists(_) == null).count(v => sums(v) > minChosen + 1e-9)
    // the selection happened before final sums could shift slightly; allow slack
    assert(unchosenAbove <= 5)
  }

  test("true outliers are overwhelmingly among the exact-list objects") {
    val space = TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 71, outlierFrac = 0.04)
    val truth = BruteForce.outliers(space, 9.0, 10).toSet
    assert(truth.nonEmpty)
    val cfg = cfgPlus(10).copy(exactListSize = 40, exactCount = math.max(40, 2 * truth.size))
    val res = NNDescent.build(space, cfg, runner)
    val covered = truth.count(res.exactLists(_) != null)
    assert(covered >= (0.8 * truth.size).toInt,
      s"only $covered of ${truth.size} outliers have exact lists")
  }

  test("NNDescent+ does fewer or equal distance evaluations than NNDescent (skip + init)") {
    var countPlain = 0L
    var countPlus = 0L
    val base = TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 72)
    def counting(counter: () => Unit) = new repro.core.MetricSpace {
      def n = base.n
      def dist(i: Int, j: Int) = { counter(); base.dist(i, j) }
      def roundingSlack = base.roundingSlack
    }
    NNDescent.build(counting(() => countPlain += 1), cfgKGraph(8), runner)
    NNDescent.build(counting(() => countPlus += 1), cfgPlus(8), runner)
    // the empirical claim of §5.1 — the plus variant saves distance work
    assert(countPlus < countPlain,
      s"NNDescent+ used $countPlus evals vs NNDescent $countPlain")
  }

  test("no local-join chunk evaluates a pair it can read from the master row or its partner loop") {
    val recording = new RecordingSpace(TestSpaces.clustered(600, 8, VectorMetric.L2, seed = 73))
    var (evaluated, read) = (0L, 0L)
    // each local-join chunk's evaluations, in call order, walked against its
    // partner loops: outer element `a` = joinNew(v)(i), partners
    // joinNew(v)(i + 1 ..) ++ joinOld(v)
    val runner = new WatchingRunner(4, recording)({
      case (join: NNDescent.JoinLists, s, e, evals) =>
        def row(c: NNDescent.Csr, v: Int) = c.ids.slice(c.off(v), c.off(v + 1))
        var at = 0
        for (v <- s until e; nw = row(join.joinNew, v); (a, i) <- nw.zipWithIndex) {
          val inMasterRow = join.master.idsOf(a).toSet
          val loop = mutable.HashSet.empty[Int]
          for (b <- nw.drop(i + 1) ++ row(join.joinOld, v) if b != a) {
            if (at < evals.length && evals(at) == ((a, b))) {
              assert(!inMasterRow(b), s"chunk [$s, $e) evaluates ($a, $b), but $b is in $a's master row")
              assert(!loop(b), s"chunk [$s, $e) evaluates ($a, $b) twice in $a's partner loop")
              at += 1
              evaluated += 1
            } else read += 1
            loop += b
          }
        }
        assert(at == evals.length, s"chunk [$s, $e): an evaluation outside the partner loops")
      case _ =>
    })
    NNDescent.build(recording, cfgPlus(10), runner)
    assert(evaluated > 0 && read > 0, s"$evaluated evaluated, $read read")
  }

  // ---- the flat implementation against the boxed reference ---------------

  private def sameRows(x: Array[Array[Int]], y: Array[Array[Int]]): Boolean =
    (x == null && y == null) || (x != null && y != null && x.length == y.length &&
      x.indices.forall(i => java.util.Arrays.equals(x(i), y(i))))

  /** Builds with [[NNDescent]] and [[NNDescentReference]] and demands equal
    * lists, pivots, exact lists, iteration counts
    * and distance evaluations.
    */
  private def assertSameAsReference(space: MetricSpace, cfg: NNDescentConfig, runner: ParRunner, clue: String): Unit = {
    val flatSpace = new CountingSpace(space)
    val refSpace = new CountingSpace(space)
    val got = NNDescent.build(flatSpace, cfg, runner)
    val ref = NNDescentReference.build(refSpace, cfg, runner)
    assert(sameRows(got.nbrId, ref.nbrId), s"$clue: nbrId")
    assert(java.util.Arrays.equals(got.isPivot, ref.isPivot), s"$clue: isPivot")
    assert(sameRows(got.exactLists, ref.exactLists), s"$clue: exactLists")
    assert(got.iterations == ref.iterations, s"$clue: iterations")
    assert(flatSpace.evaluations == refSpace.evaluations, s"$clue: distance evaluations")
  }

  private val referenceSpaces: Seq[(String, () => MetricSpace)] = Seq(
    "clustered L2" -> (() => TestSpaces.clustered(800, 8, VectorMetric.L2, seed = 61)),
    "angular" -> (() => TestSpaces.angular(800, 12, seed = 62)),
    "tie-heavy strings" -> (() => TestSpaces.strings(500, seed = 63)),
    "all-identical points" -> (() => new VectorSpace(Array.fill(120)(Array(3.0, -1.0, 2.0)), VectorMetric.L2)),
  ) ++ (1 to 3).map(n => s"n=$n" -> (() => TestSpaces.uniform(n, 3, VectorMetric.L2, seed = 80L + n)))

  // the exact K'-NN stage searches vpInit's tree, so only NNDescent+ has one
  for ((name, mkSpace) <- referenceSpaces) {
    test(s"$name: builds bit-identically to the reference implementation") {
      val space = mkSpace()
      for {
        (cfgName, cfg) <- Seq(
          "KGraph" -> cfgKGraph(10),
          "KGraph with skipUnchanged" -> cfgKGraph(10).copy(skipUnchanged = true),
          "NNDescent+" -> cfgPlus(10).copy(exactListSize = 30, exactCount = 40),
        )
        (runnerName, r) <- Seq("LocalRunner(4)" -> new LocalRunner(4), "SparkRunner(4)" -> new SparkRunner(spark, 4))
      } assertSameAsReference(space, cfg, r, s"$cfgName / $runnerName")
    }
  }

  test("an exact K'-NN stage without VP-tree initialization is rejected") {
    intercept[IllegalArgumentException](cfgKGraph(10).copy(exactListSize = 30, exactCount = 40))
  }

  test("exact lists equal BruteForce.knn on adversarial spaces, and serialized tree copies give the same counts") {
    val runners = Seq(
      "LocalRunner(4)" -> new LocalRunner(4),
      "SparkRunner(4)" -> new SparkRunner(spark, 4),
      "CopyingRunner(4)" -> new CopyingRunner(4),
    )
    for ((label, space) <- TestSpaces.adversarial) {
      // MRPG's setup at K = 4: every object of these small spaces is a target
      val cfg = cfgPlus(4).copy(exactListSize = 16, exactCount = MRPG.defaultExactCount(space.n))
      val evaluations = runners.map { case (runnerName, r) =>
        val counted = new CountingSpace(space)
        val res = NNDescent.build(counted, cfg, r)
        for (v <- 0 until space.n)
          assert(res.exactLists(v) != null && res.exactLists(v).sameElements(BruteForce.knn(space, v, 16)),
            s"$label / $runnerName: vertex $v")
        runnerName -> counted.evaluations
      }
      assert(evaluations.map(_._2).distinct.size == 1, s"$label: distance evaluations $evaluations")
    }
  }

  test("sample draws what Random.shuffle(buf).take(cap) draws and leaves the RNG in step") {
    // the boxed sampler NNDescent used: no draws when the list fits
    def boxed(buf: mutable.ArrayBuffer[Int], cap: Int, rng: Random): Seq[Int] =
      if (buf.length <= cap) buf.toSeq else rng.shuffle(buf).take(cap).toSeq
    for (cap <- Seq(1, 2, 5); len <- 0 to 3 * cap; seed <- 1L to 4L) {
      val buf = Array.tabulate(len)(i => 1000 + 7 * i)
      val expectedRng = new Random(seed)
      val expected = boxed(mutable.ArrayBuffer.from(buf), cap, expectedRng)
      val rng = new Random(seed)
      val work = new Array[Int](len)
      val src = Array(-1, -2) ++ buf ++ Array(-3) // a row inside a larger array
      val got = NNDescent.sample(src, 2, 2 + len, cap, rng, work)
      assert(work.take(got).toSeq == expected, s"cap=$cap len=$len seed=$seed")
      if (len > cap) assert(expected == new Random(seed).shuffle(buf.toSeq).take(cap))
      assert(rng.nextInt() == expectedRng.nextInt(), s"RNG state, cap=$cap len=$len seed=$seed")
      // the whole-list shuffle Remove-Detours draws its target pools with
      val (whole, wholeRng, listRng) = (buf.clone(), new Random(seed), new Random(seed))
      Shuffle.inPlace(whole, len, wholeRng)
      assert(whole.toSeq == listRng.shuffle(buf.toList), s"shuffle, len=$len seed=$seed")
      assert(wholeRng.nextInt() == listRng.nextInt(), s"shuffle RNG state, len=$len seed=$seed")
    }
  }
}

/** Runs `parts` chunks in order, like [[LocalRunner]], and hands each chunk's
  * shared value, range and the evaluations it made on `recording` to
  * `onChunk`, before the caller sees the chunk's result.
  */
private final class WatchingRunner(parts: Int, recording: RecordingSpace)(
    onChunk: (Any, Int, Int, IndexedSeq[(Int, Int)]) => Unit) extends ParRunner {
  private val local = new LocalRunner(parts)
  protected def maxChunks: Int = parts

  def runShared[D, T: ClassTag](n: Int, handle: Shared[D])(f: (D, Int, Int) => T): Seq[T] =
    ranges(n).map { case (s, e) =>
      val from = recording.pairs.length
      val t = f(handle.value, s, e)
      onChunk(handle.value, s, e, recording.pairs.slice(from, recording.pairs.length).toIndexedSeq)
      t
    }

  def share[D: ClassTag](data: D): Shared[D] = local.share(data)
  def shareFor[D: ClassTag](key: Seq[AnyRef])(make: => D): Shared[D] = local.share(make)
}

/** Throws once it has made `failAfter` distance evaluations. */
private final class FailingSpace(base: MetricSpace, failAfter: Long) extends MetricSpace {
  private val calls = new java.util.concurrent.atomic.AtomicLong
  def n: Int = base.n
  def dist(i: Int, j: Int): Double = {
    if (calls.incrementAndGet() > failAfter) throw new IllegalStateException("distance failed")
    base.dist(i, j)
  }
  def roundingSlack: Double = base.roundingSlack
}
