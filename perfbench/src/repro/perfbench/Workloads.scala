package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core.CoreConf
import repro.join.{AcyclicQuery, GHD, Relation}

/** The benchmark's named workloads. Sizes and algorithm settings are those
  * of the bench suites (Table1Bench, ScalingNBench, CyclicBench) so the
  * figures can be traced back to EXPERIMENTS.md; only the data seeds move
  * with `--seed` (seed 0 reproduces the suites' 100/200/300 and 1/2/3).
  */
final case class Workload(
    name: String,
    k: Int,
    conf: CoreConf,
    fullJoinCap: Int,
    /** Bound on the NEW-fast k-means cost ratio asserted by the bench suite. */
    newMeansBound: Double,
    rows: Long,
    keys: Long,
    gen: (SparkSession, Long, Long, Long) => Seq[(String, DataFrame)],
    plan: Seq[Relation] => AcyclicQuery
) {
  /** The input relations for benchmark seed `s` (lazy DataFrames). */
  def tables(spark: SparkSession, s: Long): Seq[(String, DataFrame)] = gen(spark, s, rows, keys)
}

/** Cached input relations, their row counts and the planned query. */
final case class Inputs(tables: Seq[(String, DataFrame)], q: AcyclicQuery, rows: Seq[Long])

object Workloads {
  /** Per-table data seed for benchmark seed `s`; a large odd stride keeps
    * the seeds of different tables and benchmark seeds apart.
    */
  def dataSeed(base: Long, s: Long): Long = base + 7919L * s

  private def path(spark: SparkSession, s: Long, rows: Long, keys: Long) = Seq(
    "r1" -> SynthData.pathR1(spark, rows, keys, seed = dataSeed(100, s)),
    "r2" -> SynthData.pathR2(spark, rows, keys, keys, seed = dataSeed(200, s)),
    "r3" -> SynthData.pathR3(spark, rows, keys, seed = dataSeed(300, s)))

  private def triangle(spark: SparkSession, s: Long, rows: Long, keys: Long) = Seq(
    "R" -> SynthData.triangleR(spark, rows, keys, seed = dataSeed(1, s)),
    "S" -> SynthData.triangleS(spark, rows, keys, seed = dataSeed(2, s)),
    "T" -> SynthData.triangleT(spark, rows, keys, seed = dataSeed(3, s)))

  /** An acyclic query through its width-1 GHD, one bag per relation: the
    * same join tree GYO builds, planned by the GHD layer.
    */
  private def acyclic(rels: Seq[Relation]): AcyclicQuery =
    GHD.toAcyclic(rels.map(r => r.name -> Seq(r)))

  private def triangleGhd(rels: Seq[Relation]): AcyclicQuery =
    GHD.triangle(rels(0).df, rels(1).df, rels(2).df)

  val all: Seq[Workload] = Seq(
    // Table1Workload: N = 6k, |q(D)| ~ 50k, d = 4
    Workload("path-small", k = 5,
      CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 30000, heavyFraction = 0.02, seed = 7),
      fullJoinCap = 2_000_000, newMeansBound = 1.8, rows = 2000, keys = 400, path, acyclic),
    // ScalingNBench point nKeys = 2000: N = 120k, |q(D)| ~ 16M
    Workload("path-blowup", k = 5,
      CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 50000, seed = 11),
      fullJoinCap = 500_000, newMeansBound = 1.8, rows = 40000, keys = 2000, path, acyclic),
    // 200 rows per relation: for the benchmark's self-test
    Workload("path-tiny", k = 5,
      CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 2000, heavyFraction = 0.02, seed = 7),
      fullJoinCap = 2_000_000, newMeansBound = 1.8, rows = 200, keys = 50, path, acyclic),
    // CyclicBench: ~40k triangles through a single GHD bag
    Workload("triangle", k = 4,
      CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 20000, seed = 17),
      fullJoinCap = 2_000_000, newMeansBound = 2.0, rows = 20000, keys = 600, triangle,
      triangleGhd),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
