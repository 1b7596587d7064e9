package repro.core

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

  /** Exact neighbor count of `p` (no cap). */
  def exactCount(space: MetricSpace, p: Int, r: Double): Int =
    countNeighbors(space, p, r, Int.MaxValue)

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
    * distances and keeps the best `k` in a bounded max-heap ordered by
    * `(java.lang.Double.compare(dist), id)` — the order of sorting the
    * `(dist, id)` tuples — which is heap-sorted ascending at the end.
    */
  def knn(space: MetricSpace, p: Int, k: Int): Array[Int] = {
    val n = space.n
    val cap = math.max(0, math.min(k, n - 1))
    val ids = new Array[Int](cap)
    val ds = new Array[Double](cap)

    // entry a orders after entry b
    def after(a: Int, b: Int): Boolean = {
      val c = java.lang.Double.compare(ds(a), ds(b))
      c > 0 || (c == 0 && ids(a) > ids(b))
    }
    def swap(a: Int, b: Int): Unit = {
      val t = ids(a); ids(a) = ids(b); ids(b) = t
      val d = ds(a); ds(a) = ds(b); ds(b) = d
    }
    def siftDown(from: Int, size: Int): Unit = {
      var i = from
      var done = false
      while (!done) {
        val l = 2 * i + 1
        if (l >= size) done = true
        else {
          val c = if (l + 1 < size && after(l + 1, l)) l + 1 else l
          if (after(c, i)) { swap(c, i); i = c } else done = true
        }
      }
    }

    var size = 0
    var i = 0
    while (i < n) {
      if (i != p) {
        val d = space.dist(p, i)
        if (size < cap) {
          ids(size) = i; ds(size) = d
          var c = size
          size += 1
          while (c > 0 && after(c, (c - 1) / 2)) { swap(c, (c - 1) / 2); c = (c - 1) / 2 }
        } else if (cap > 0 && java.lang.Double.compare(d, ds(0)) < 0) {
          // ids arrive ascending, so an equal distance never displaces the top
          ids(0) = i; ds(0) = d
          siftDown(0, size)
        }
      }
      i += 1
    }
    var end = size - 1
    while (end > 0) { swap(0, end); siftDown(0, end); end -= 1 }
    ids
  }
}
