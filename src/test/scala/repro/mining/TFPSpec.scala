package repro.mining

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TFPSpec extends AnyFunSuite {

  test("top-k closed sets match brute force on random transaction sets") {
    val rnd = new Random(81)
    for (_ <- 0 until 25) {
      val nItems = 2 + rnd.nextInt(6)
      val nTx = 1 + rnd.nextInt(8)
      val tx = Seq.fill(nTx)((0 until nItems).filter(_ => rnd.nextDouble() < 0.5).toSet)
        .filter(_.nonEmpty)
      if (tx.nonEmpty) {
        for (lm <- 1 to 3) {
          val brute = TFP.bruteClosed(tx, lm)
          val k = brute.size + 2
          val got = TFP.topK(tx, k, lm)
          // Same family of closed sets with same supports.
          assert(got.map(c => (c.items, c.support)).toSet ==
            brute.map(c => (c.items, c.support)).toSet, s"lm=$lm tx=$tx")
        }
      }
    }
  }

  test("top-k respects support ordering") {
    val rnd = new Random(91)
    for (_ <- 0 until 15) {
      val nItems = 3 + rnd.nextInt(5)
      val tx = Seq.fill(10)((0 until nItems).filter(_ => rnd.nextDouble() < 0.6).toSet)
        .filter(_.nonEmpty)
      if (tx.nonEmpty) {
        val got = TFP.topK(tx, 4, 1)
        assert(got.map(_.support) == got.map(_.support).sorted(Ordering[Int].reverse))
        val all = TFP.bruteClosed(tx, 1).map(_.support).sorted(Ordering[Int].reverse)
        assert(got.map(_.support) == all.take(got.size))
      }
    }
  }

  test("closedness: no returned set has a superset with equal support") {
    val tx = Seq(Set(1, 2, 3), Set(1, 2, 3), Set(1, 2), Set(2, 3, 4))
    val got = TFP.topK(tx, 10, 1)
    for (c <- got; c2 <- got; if c != c2 && c.items.subsetOf(c2.items))
      assert(c.support > c2.support)
    // {1,2} has support 3 but so does {1,2,3}? No: {1,2} appears in 3 tx,
    // {1,2,3} in 2 — {1,2} is closed here. {2,3} support 3 ≠ {2,3,4} (1).
    assert(got.exists(c => c.items == Set(1, 2, 3) && c.support == 2))
  }

  test("minimum size lm filters small nuclei") {
    val tx = Seq(Set(1), Set(1), Set(1, 2, 3))
    assert(TFP.topK(tx, 5, 2).forall(_.items.size >= 2))
    assert(TFP.topK(tx, 5, 1).exists(_.items == Set(1)))
  }

  test("gammaHat is the containment frequency") {
    val tx = Seq(Set(1, 2), Set(1, 2, 3), Set(2, 3))
    assert(math.abs(TFP.gammaHat(tx, Set(1, 2)) - 2.0 / 3) < 1e-12)
    assert(TFP.gammaHat(tx, Set(2)) == 1.0)
    assert(TFP.gammaHat(tx, Set(4)) == 0.0)
  }

  test("empty inputs") {
    assert(TFP.topK(Seq.empty, 3, 1).isEmpty)
    assert(TFP.topK(Seq(Set(1)), 0, 1).isEmpty)
    assert(TFP.topK(Seq(Set(1)), 3, 2).isEmpty)
  }

  test("mine reports whether the search stopped at maxVisited") {
    val tx = Seq(Set(1, 2, 3), Set(1, 2), Set(2, 3), Set(1, 3), Set(3, 4))
    val all = TFP.mine(tx, 10, 1, maxVisited = 100)
    assert(!all.truncated)
    assert(all.topK == TFP.topK(tx, 10, 1))
    val cut = TFP.mine(tx, 10, 1, maxVisited = 2)
    assert(cut.truncated)
    assert(cut.topK.size < all.topK.size)
    assert(!TFP.mine(Seq.empty, 3, 1, maxVisited = 1).truncated)
  }
}
