package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.graph.Graph
import repro.uncertain.{UncertainGraph, WorldSampler}

/** The possible worlds an estimator sums over: the θ worlds of a sampled
  * run (Algorithm 1 line 3, Algorithm 5 line 3), each of weight 1, or all
  * 2^m worlds, each of weight Pr(G) (Equation 1; the §VI-H exact baseline).
  * τ(U) is the weight of the worlds where U is densest over `total`.
  */
sealed trait Worlds extends Serializable {

  /** The weight of all worlds: θ when sampled, 1 when enumerated. */
  def total: Double

  protected def ids(g: UncertainGraph): Long

  /** World `i` of `g` with its weight; None if it has probability 0. */
  protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)]

  /** The rows `f(i, weight, world)` of every world `i`, as one Spark
    * Dataset: the only fan-out over possible worlds. `g` is broadcast once,
    * and each task builds its worlds from their ids.
    */
  final def flatMap[A: Encoder](spark: SparkSession, g: UncertainGraph)(
      f: (Long, Double, Graph) => Iterator[A]): Dataset[A] = {
    val bc = spark.sparkContext.broadcast(g)
    spark.range(ids(g)).as(Encoders.scalaLong)
      .flatMap(i => world(bc.value, i).iterator.flatMap { case (w, gw) => f(i, w, gw) })
  }
}

object Worlds {

  /** Sample `i < theta` of `sampler` at `seed`; every world weighs 1. */
  final case class Sampled(theta: Int, sampler: WorldSampler, seed: Long) extends Worlds {
    def total: Double = theta.toDouble
    protected def ids(g: UncertainGraph): Long = theta.toLong
    protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)] =
      Some((1.0, g.world(sampler.worldForIndex(g, i, theta, seed))))
  }

  /** Every edge mask `i < 2^m` of positive probability, weighing Pr(G). */
  case object Enumerated extends Worlds {
    def total: Double = 1.0
    protected def ids(g: UncertainGraph): Long = {
      require(g.m <= 30, s"exact enumeration needs 2^m worlds; m=${g.m} is too large")
      1L << g.m
    }
    protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)] = {
      val present = g.worldOfMask(i)
      val pr = g.worldProbability(present)
      if (pr == 0.0) None else Some((pr, g.world(present)))
    }
  }
}
