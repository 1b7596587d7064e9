package repro.core

import scala.util.Random

/** Fisher–Yates shuffles of `Int` arrays, drawn as `Random.shuffle` draws. */
object Shuffle {

  /** `rng.shuffle` of `a(0 until len)` in place, without boxing and with the
    * same draws: `rng.nextInt(m)` for `m` = `len` down to 2.
    */
  def inPlace(a: Array[Int], len: Int, rng: Random): Unit = {
    var m = len
    while (m >= 2) {
      val j = rng.nextInt(m)
      val t = a(m - 1); a(m - 1) = a(j); a(j) = t
      m -= 1
    }
  }

  /** `[0, n)` in the order `rng.shuffle(0 until n)` gives. */
  def range(n: Int, rng: Random): Array[Int] = {
    val a = Array.range(0, n)
    inPlace(a, n, rng)
    a
  }
}
