package repro.uncertain

/** A per-world random stream: exactly the stream of `new java.util.Random(seed)`
  * (its seed scramble, 48-bit LCG, `nextDouble` and `nextInt(bound)`), without
  * the atomic update `java.util.Random` pays on every draw. One world's stream
  * lives in one thread, so nothing needs to be shared.
  */
final class Rnd private (private var state: Long) {

  private def next(bits: Int): Int = {
    state = (state * Rnd.Multiplier + Rnd.Addend) & Rnd.Mask
    (state >>> (48 - bits)).toInt
  }

  /** Uniform in [0, 1), as `java.util.Random.nextDouble`. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Rnd.DoubleUnit

  /** Uniform in [0, bound), as `java.util.Random.nextInt(bound)`. */
  def nextInt(bound: Int): Int = {
    require(bound > 0, "bound must be positive")
    var r = next(31)
    val m = bound - 1
    if ((bound & m) == 0) (bound * r.toLong >> 31).toInt
    else {
      var u = r
      r = u % bound
      while (u - r + m < 0) { u = next(31); r = u % bound }
      r
    }
  }
}

/** Seed mixing for per-world RNG streams. `java.util.Random` instances
  * created from sequential seeds emit correlated first draws, which biases
  * Bernoulli edge sampling across worlds; the splitmix64 finaliser
  * decorrelates (world index, base seed) pairs.
  */
object Rnd {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The stream of `new java.util.Random(seed)`. */
  def apply(seed: Long): Rnd = new Rnd((seed ^ Multiplier) & Mask)

  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def forWorld(seed: Long, world: Long): Rnd = Rnd(mix(seed * 0x9E3779B97F4A7C15L + world))
}
