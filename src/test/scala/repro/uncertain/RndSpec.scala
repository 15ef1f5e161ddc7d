package repro.uncertain

import org.scalatest.funsuite.AnyFunSuite

class RndSpec extends AnyFunSuite {

  private val bounds = Seq(1, 2, 3, 5, 7, 10, 16, 64, 100, 1 << 20, (1 << 20) + 3,
    1 << 30, (1 << 30) + 1, Int.MaxValue - 1, Int.MaxValue)

  private val seeds: Seq[Long] = {
    val r = new java.util.Random(20261019L)
    Seq(0L, 1L, -1L, Long.MinValue, Long.MaxValue, 0x5DEECE66DL) ++ Seq.fill(1200)(r.nextLong())
  }

  test("nextDouble and nextInt(bound) equal java.util.Random's stream") {
    for (seed <- seeds) {
      val want = new java.util.Random(seed)
      val got = Rnd(seed)
      for (_ <- 0 until 3; b <- bounds) {
        assert(got.nextDouble() == want.nextDouble(), s"seed $seed nextDouble")
        assert(got.nextInt(b) == want.nextInt(b), s"seed $seed nextInt($b)")
      }
    }
  }

  test("forWorld is java.util.Random seeded by the mixed (seed, world)") {
    for (seed <- seeds.take(50); world <- 0L until 20L) {
      val want = new java.util.Random(Rnd.mix(seed * 0x9E3779B97F4A7C15L + world))
      val got = Rnd.forWorld(seed, world)
      for (_ <- 0 until 10) assert(got.nextDouble() == want.nextDouble())
      assert(got.nextInt(12345) == want.nextInt(12345))
    }
  }

  test("nextInt rejects a bound that is not positive") {
    intercept[IllegalArgumentException](Rnd(1L).nextInt(0))
    intercept[IllegalArgumentException](Rnd(1L).nextInt(-4))
  }
}
