package repro.graph

import org.scalacheck.{Gen, Prop, Properties}
import scala.collection.mutable

/** [[AdjacencyStore]] keeps a `mutable.LinkedHashSet` per row: the same
  * answers to add / remove / contains, and the same iteration order, after
  * any sequence of calls (few rows and ids, so removed ids are re-added
  * often). Neither property shrinks: ScalaCheck's default shrinkers would
  * step past the generators' ranges (a row of -1, an id of -1) and report a
  * failure on calls the generators never make.
  */
object AdjacencyStoreProps extends Properties("AdjacencyStore") {

  private val Rows = 3
  private val Ids = 8

  private val Add = 0
  private val Remove = 1
  private val Contains = 2

  private val op: Gen[(Int, Int, Int)] = for {
    kind <- Gen.frequency(3 -> Add, 2 -> Remove, 1 -> Contains)
    v <- Gen.choose(0, Rows - 1)
    u <- Gen.choose(0, Ids - 1)
  } yield (kind, v, u)

  property("matchesLinkedHashSet") = Prop.forAllNoShrink(Gen.listOf(op)) { ops =>
    val store = new AdjacencyStore(Rows)
    val sets = Array.fill(Rows)(mutable.LinkedHashSet.empty[Int])
    val sameAnswers = ops.forall { case (kind, v, u) =>
      if (kind == Add) store.add(v, u) == sets(v).add(u)
      else if (kind == Remove) store.remove(v, u) == sets(v).remove(u)
      else store.contains(v, u) == sets(v).contains(u)
    }
    val (offsets, links) = store.toCsr
    sameAnswers && offsets.length == Rows + 1 && offsets(Rows) == links.length && (0 until Rows).forall { v =>
      val expected = sets(v).toSeq
      store.row(v).toSeq == expected && links.slice(offsets(v), offsets(v + 1)).toSeq == expected &&
        store.size(v) == expected.size &&
        store.ids(v).take(store.size(v)).toSeq == expected && // the row the steps read in place
        (0 until Ids).forall(u => store.contains(v, u) == sets(v).contains(u))
    }
  }

  property("ofMatchesLinkedHashSetFrom") =
    Prop.forAllNoShrink(Gen.listOfN(Rows, Gen.listOf(Gen.choose(0, Ids - 1)))) { rows =>
      val store = AdjacencyStore.of(rows.map(_.toArray).toArray)
      rows.indices.forall(v => store.row(v).toSeq == mutable.LinkedHashSet.from(rows(v)).toSeq)
    }
}
