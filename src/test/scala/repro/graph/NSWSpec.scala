package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSpaces
import repro.core.VectorMetric

/** NSW construction. */
class NSWSpec extends AnyFunSuite {

  private lazy val space = TestSpaces.clustered(500, 6, VectorMetric.L2, seed = 91)
  private lazy val g = NSW.build(space, f = 6, seed = 9)

  test("graph is undirected") {
    for (v <- 0 until space.n; u <- g.adj(v)) {
      assert(g.adj(u).contains(v), s"missing reverse link $u -> $v")
    }
  }

  test("graph is connected (single BFS component)") {
    val visited = new java.util.BitSet(space.n)
    val q = new java.util.ArrayDeque[Integer]()
    visited.set(0); q.add(0)
    var count = 0
    while (!q.isEmpty) {
      val v = q.poll().intValue(); count += 1
      g.adj(v).foreach(u => if (!visited.get(u)) { visited.set(u); q.add(u) })
    }
    assert(count == space.n)
  }

  test("no self loops or duplicate links") {
    for (v <- 0 until space.n) {
      assert(!g.adj(v).contains(v))
      assert(g.adj(v).distinct.length == g.adj(v).length)
    }
  }

  test("average degree is about 2f (memory comparable to a KGraph of degree K=2f)") {
    val avg = g.numLinks.toDouble / space.n
    assert(avg >= 6.0 && avg <= 4 * 6.0, s"avg degree $avg")
  }

  test("links connect nearby objects (mean link distance << mean random distance)") {
    val rng = new scala.util.Random(92)
    val linkD = (0 until 200).map { _ =>
      val v = rng.nextInt(space.n)
      val us = g.adj(v)
      space.dist(v, us(rng.nextInt(us.length)))
    }
    val randD = (0 until 200).map(_ => space.dist(rng.nextInt(space.n), rng.nextInt(space.n)))
    assert(linkD.sum / linkD.size < 0.5 * randD.sum / randD.size)
  }

  test("NSW has no pivots and no exact lists") {
    assert(g.isPivot.forall(!_))
    assert(g.exactLists == null && g.exactK == 0)
  }

  test("build is deterministic in the seed") {
    val a = NSW.build(space, f = 4, seed = 10)
    val b = NSW.build(space, f = 4, seed = 10)
    assert((0 until space.n).forall(v => a.adj(v).sameElements(b.adj(v))))
  }

  test("tiny inputs build without error") {
    for (n <- Seq(1, 2, 3, 5)) {
      val s = TestSpaces.uniform(n, 3, VectorMetric.L2, seed = 95 + n)
      val gg = NSW.build(s, f = 4, seed = 11)
      assert(gg.n == n)
    }
  }
}
