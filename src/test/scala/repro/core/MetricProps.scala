package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.baseline.{SNIF, ScanDOD}
import repro.graph.NNLists

/** ScalaCheck property suites (run by sbt's ScalaCheck framework directly). */
object MetricProps extends Properties("Metric") {

  private val vec: Gen[Array[Double]] =
    Gen.listOfN(6, Gen.choose(-5.0, 5.0)).map(_.toArray)

  private val metrics =
    Seq(VectorMetric.L1, VectorMetric.L2, VectorMetric.L4, VectorMetric.Angular)

  for (m <- metrics) {
    property(s"${m.name}.symmetry") = Prop.forAll(vec, vec) { (a, b) =>
      math.abs(m.dist(a, b) - m.dist(b, a)) < 1e-9
    }
    property(s"${m.name}.triangle") = Prop.forAll(vec, vec, vec) { (a, b, c) =>
      m.dist(a, c) <= m.dist(a, b) + m.dist(b, c) + 1e-9
    }
    property(s"${m.name}.identity") = Prop.forAll(vec) { a =>
      m.dist(a, a) < 1e-6
    }
  }

  /** Rows of 1–40 coordinates, so `within` stops mid-row, at a row's end or
    * not at all; and radii around the pair's distance.
    */
  private val rowPair: Gen[(Array[Double], Array[Double])] = for {
    dim <- Gen.chooseNum(1, 40)
    a <- Gen.listOfN(dim, Gen.choose(-5.0, 5.0))
    b <- Gen.listOfN(dim, Gen.choose(-5.0, 5.0))
  } yield (a.toArray, b.toArray)

  private def radiiAround(d: Double): Gen[Double] =
    Gen.oneOf(Gen.const(d), Gen.const(Math.nextUp(d)), Gen.const(Math.nextDown(d)), Gen.choose(0.0, 2 * d))

  for (m <- metrics) {
    property(s"${m.name}.withinMatchesDist") = Prop.forAll(rowPair) { case (a, b) =>
      val space = new VectorSpace(Array(a, b), m)
      val d = space.dist(0, 1)
      Prop.forAll(radiiAround(d))(r => space.within(0, 1, r) == (d <= r))
    }
  }

  /** Near-duplicate directions: up to 29 perturbations (1e-6 to 1e-9 per
    * coordinate) of two random vectors, and one far vector. Their angular
    * distances sit at the scale of `acos`'s rounding error near 0 (about
    * 1e-8), where computed distances can break the triangle inequality the
    * VP-tree and SNIF prune by.
    */
  private val nearDuplicates: Gen[VectorSpace] = for {
    dim <- Gen.chooseNum(2, 12)
    n <- Gen.chooseNum(4, 30)
    scale <- Gen.oneOf(1e-6, 1e-7, 1e-8, 1e-9)
    seed <- Gen.long
  } yield {
    val rng = new scala.util.Random(seed)
    val centers = Array.fill(2, dim)(rng.nextGaussian())
    new VectorSpace(Array.tabulate(n) { i =>
      if (i == n - 1) Array.fill(dim)(rng.nextGaussian())
      else centers(rng.nextInt(2)).map(_ + rng.nextGaussian() * scale * rng.nextInt(4))
    }, VectorMetric.Angular)
  }

  property("Angular.prunedCountsMatchBruteForceOnNearDuplicates") =
    Prop.forAll(nearDuplicates, Gen.long) { (space, seed) =>
      val rng = new scala.util.Random(seed)
      val n = space.n
      // radii at acos's error scale, and computed distances with their
      // neighbouring doubles, so some neighbours tie r exactly
      val ds = Seq.fill(6)(space.dist(rng.nextInt(n), rng.nextInt(n)))
      val radii = Seq(0.0, 1e-9, 5e-9, 1e-8, 2e-8, 5e-8) ++
        ds.flatMap(d => Seq(d, Math.nextUp(d), Math.nextDown(d))).filter(_ >= 0)
      val counters = Seq(LinearScanCounter(), VPTreeCounter(VPTree.build(space, 1, seed)),
        VPTreeCounter(VPTree.build(space, 3, seed + 1)))
      val runner = new LocalRunner(2)
      radii.forall { r =>
        Seq(1, 2, n / 2, n).forall { k =>
          val truth = BruteForce.outliers(space, r, k)
          counters.forall { c =>
            (0 until n).forall(p => c.count(space, p, r, k, null) == BruteForce.countNeighbors(space, p, r, k)) &&
              ScanDOD.run(runner, space, r, k, c).outliers.sameElements(truth)
          } && SNIF.run(runner, space, r, k, seed).outliers.sameElements(truth)
        }
      }
    }

  private val word: Gen[String] =
    Gen.chooseNum(0, 8).flatMap(n => Gen.listOfN(n, Gen.choose('a', 'c')).map(_.mkString))

  /** Exponential reference implementation for small strings. */
  private def slowEdit(a: String, b: String): Int =
    if (a.isEmpty) b.length
    else if (b.isEmpty) a.length
    else {
      val sub = slowEdit(a.tail, b.tail) + (if (a.head == b.head) 0 else 1)
      val del = slowEdit(a.tail, b) + 1
      val ins = slowEdit(a, b.tail) + 1
      math.min(sub, math.min(del, ins))
    }

  property("EditDistance.matchesRecursiveReference") = Prop.forAll(word, word) { (a, b) =>
    EditDistance(a, b) == slowEdit(a, b)
  }

  property("EditDistance.triangle") = Prop.forAll(word, word, word) { (a, b, c) =>
    EditDistance(a, c) <= EditDistance(a, b) + EditDistance(b, c)
  }

  /** Words of 0–70 UTF-16 units, so pairs run both the bit-parallel kernel
    * (shorter word <= 64 units) and the DP fallback (both longer). The
    * alphabet has a non-ASCII char and a surrogate pair, which the kernel
    * encodes as two units, like `charAt`.
    */
  private val kernelWord: Gen[String] = for {
    len <- Gen.oneOf(Gen.chooseNum(0, 70), Gen.chooseNum(60, 70))
    toks <- Gen.listOfN(len, Gen.oneOf("a", "b", "c", "\u00e9", "\uD83D\uDE00"))
  } yield toks.mkString.take(len)

  property("StringSpace.within.matchesDist") =
    Prop.forAll(Gen.chooseNum(1, 6).flatMap(Gen.listOfN(_, kernelWord)), Gen.choose(-0.5, 0.5)) { (ws, shift) =>
      val ss = new StringSpace(ws.toArray)
      val ids = ws.indices
      ids.forall(i => ids.forall { j =>
        val d = ss.dist(i, j)
        val lengthGap = math.abs(ws(i).length - ws(j).length).toDouble
        Seq(d, d + shift, d - 1, lengthGap, lengthGap + shift).forall(r => ss.within(i, j, r) == (d <= r))
      })
    }

  property("StringSpace.dist.matchesEditDistance") =
    Prop.forAll(Gen.chooseNum(1, 6).flatMap(Gen.listOfN(_, kernelWord))) { ws =>
      val ss = new StringSpace(ws.toArray)
      val ids = ws.indices
      ids.forall(i => ids.forall(j => ss.dist(i, j) == EditDistance(ws(i), ws(j)).toDouble))
    }
}

/** Invariants of the flat bounded candidate lists ([[NNLists]]): every row
  * behaves as its own sorted, bounded, duplicate-free list.
  */
object NNListProps extends Properties("NNList") {

  private val Rows = 3

  private val inserts: Gen[List[(Int, Int, Double)]] =
    Gen.listOf(Gen.zip(Gen.chooseNum(0, Rows - 1), Gen.chooseNum(0, 40), Gen.choose(0.0, 100.0)))

  /** Row `r`'s distances, read from the flat `ds`. */
  private def dists(l: NNLists, r: Int): Array[Double] =
    java.util.Arrays.copyOfRange(l.ds, r * l.cap, r * l.cap + l.size(r))

  private def row(l: NNLists, r: Int): (Array[Int], Array[Double]) = (l.idsOf(r), dists(l, r))

  property("sortedAndBounded") = Prop.forAll(inserts, Gen.chooseNum(1, 8)) { (ops, cap) =>
    val l = new NNLists(Rows, cap)
    ops.foreach { case (r, id, d) => l.insert(r, id, d) }
    (0 until Rows).forall { r =>
      val (ids, ds) = row(l, r)
      // a row holds exactly what a one-row store fed the same inserts holds
      val alone = new NNLists(1, cap)
      ops.foreach { case (r2, id, d) => if (r2 == r) alone.insert(0, id, d) }
      l.size(r) <= cap &&
        ds.sameElements(ds.sorted) &&
        ids.distinct.length == ids.length &&
        ids.sameElements(alone.idsOf(0)) && ds.sameElements(dists(alone, 0))
    }
  }

  property("keepsTheMinimum") = Prop.forAll(inserts, Gen.chooseNum(1, 8)) { (ops, cap) =>
    // in real use an id is always inserted with the same (deterministic)
    // distance, so feed one occurrence per (row, id)
    val unique = ops.distinctBy { case (r, id, _) => (r, id) }
    val l = new NNLists(Rows, cap)
    unique.foreach { case (r, id, d) => l.insert(r, id, d) }
    (0 until Rows).forall { r =>
      val mine = unique.filter(_._1 == r)
      mine.isEmpty || math.abs(dists(l, r)(0) - mine.map(_._3).min) < 1e-12
    }
  }

  property("rejectsDuplicates") = Prop.forAll(Gen.chooseNum(1, 8)) { cap =>
    val l = new NNLists(Rows, cap)
    l.insert(1, 1, 5.0) && !l.insert(1, 1, 7.0) && l.size(1) == 1 && l.size(0) == 0
  }

  property("seedCopiesRowsUnflagged") = Prop.forAll(inserts, inserts, Gen.chooseNum(1, 8)) { (before, after, cap) =>
    // as in real use, an id always comes with the same distance to a row
    def dist(r: Int, id: Int): Double = ((id * 37 + r * 11) % 23).toDouble
    val master = new NNLists(Rows, cap)
    before.foreach { case (r, id, _) => master.insert(r, id, dist(r, id)) }
    val copy = new NNLists(Rows, cap)
    copy.insert(0, 99, 0.0) // overwritten by the seed
    copy.seed(master)
    val seeded = (0 until Rows).forall { r =>
      copy.idsOf(r).sameElements(master.idsOf(r)) && dists(copy, r).sameElements(dists(master, r))
    } && !copy.isNew.exists(identity)
    // afterwards a row flags exactly the ids its own inserts added
    after.foreach { case (r, id, _) => copy.insert(r, id, dist(r, id)) }
    seeded && (0 until Rows).forall { r =>
      (0 until copy.size(r)).forall { i =>
        copy.isNew(r * cap + i) == !master.idsOf(r).contains(copy.ids(r * cap + i))
      }
    }
  }

  property("zeroCapacityAdmitsNothing") = Prop.forAll(inserts) { ops =>
    val l = new NNLists(Rows, 0)
    (ops :+ ((1, 0, Double.NaN))).forall { case (r, id, d) => !l.insert(r, id, d) } &&
      (0 until Rows).forall(r => l.size(r) == 0 && l.worst(r) == Double.NegativeInfinity)
  }
}
