package repro.core

import repro.graph.NNLists

/** Ground-truth helpers: O(n^2) neighbor counting with the same early
  * termination every evaluated algorithm uses. Counting compares
  * `dist <= r`, not `within`, so the reference every exactness check
  * compares with does not share the detectors' threshold kernels.
  */
object BruteForce {

  /** Number of neighbors of `p` within `r`, counting stops at `cap`. */
  def countNeighbors(space: MetricSpace, p: Int, r: Double, cap: Int): Int = {
    var count = 0
    var i = 0
    val n = space.n
    while (i < n && count < cap) {
      if (i != p && space.dist(p, i) <= r) count += 1
      i += 1
    }
    count
  }

  /** All distance-based outliers (objects with fewer than `k` neighbors). */
  def outliers(space: MetricSpace, r: Double, k: Int): Array[Int] = {
    val out = Array.newBuilder[Int]
    var p = 0
    while (p < space.n) {
      if (countNeighbors(space, p, r, k) < k) out += p
      p += 1
    }
    out.result()
  }

  /** Exact K nearest neighbors of `p` (excluding itself), ascending by
    * distance; ties broken by id for determinism. Evaluates all `n - 1`
    * distances into one [[NNLists]] row of capacity `min(k, n - 1)`: ids
    * arrive ascending, an equal distance goes after the entries it ties,
    * and a full row rejects a distance equal to its worst, so the row holds
    * the first `k` ids in `(dist, id)` order. The reference that
    * [[VPTree.knn]], NNDescent+'s exact K'-NN stage, must equal id for id.
    */
  def knn(space: MetricSpace, p: Int, k: Int): Array[Int] = {
    val n = space.n
    val row = new NNLists(1, math.max(0, math.min(k, n - 1)))
    var i = 0
    while (i < n) {
      if (i != p) row.insert(0, i, space.dist(p, i))
      i += 1
    }
    row.idsOf(0)
  }
}
