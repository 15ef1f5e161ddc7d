package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import scala.math.Ordering.Implicits.seqOrdering

class NodeSetKeySpec extends AnyFunSuite {

  /** Node ids over the whole non-negative range, with its ends often. */
  private val id: Gen[Int] = Gen.frequency(
    (1, Gen.const(0)), (1, Gen.const(Int.MaxValue)), (3, Gen.choose(0, 40)), (5, Gen.choose(0, Int.MaxValue)))

  /** A node set in the generator's (unsorted) order, empty ones included. */
  private val nodeSet: Gen[Seq[Int]] = Gen.listOf(id).map(_.distinct)

  /** The key of a set given in any order. */
  private def key(s: Seq[Int]): Array[Byte] = NodeSetKey.of(s.sorted.toArray)

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(20261019L), p)
    assert(r.passed, r.status.toString)
  }

  test("a key decodes to the sorted ids of its set") {
    check(Prop.forAll(nodeSet)(s => NodeSetKey.parse(key(s)) == s.sorted))
    assert(key(Seq.empty).isEmpty && NodeSetKey.parse(Array.empty).isEmpty)
    assert(NodeSetKey.parse(key(Seq(Int.MaxValue, 7, 0))) == Seq(0, 7, Int.MaxValue))
    // parse inverts of on keys: re-encoding a decoded key gives it back.
    check(Prop.forAll(nodeSet) { s =>
      val k = key(s)
      NodeSetKey.of(NodeSetKey.parse(k).toArray).sameElements(k)
    })
    // The ids are encoded as given, so they must already be ascending and distinct.
    for (bad <- Seq(Array(3, 1), Array(2, 2), Array(-1, 4))) intercept[IllegalArgumentException](NodeSetKey.of(bad))
  }

  test("each id is a length byte and its significant big-endian bytes") {
    def bytes(ids: Int*) = key(ids).map(_ & 0xff).toSeq
    assert(bytes(0) == Seq(0))
    assert(bytes(33, 1) == Seq(1, 1, 1, 33))
    assert(bytes(255, 256) == Seq(1, 255, 2, 1, 0))
    assert(bytes(Int.MaxValue) == Seq(4, 127, 255, 255, 255))
    // Ids of a 34-node graph take 2 bytes each, half of a fixed 4-byte int.
    assert(key(1 to 33).length == 2 * 33)
  }

  test("unsigned byte order of keys is the lexicographic order of sorted ids") {
    check(Prop.forAll(nodeSet, nodeSet) { (a, b) =>
      Integer.signum(java.util.Arrays.compareUnsigned(key(a), key(b))) ==
        Integer.signum(seqOrdering[Seq, Int].compare(a.sorted, b.sorted))
    })
    def before(a: Set[Int], b: Set[Int]) = java.util.Arrays.compareUnsigned(key(a.toSeq), key(b.toSeq)) < 0
    assert(before(Set(2), Set(10)))
    assert(before(Set(1, 3), Set(1, 3, 4)) && before(Set(1, 3, 4), Set(2)))
  }
}
