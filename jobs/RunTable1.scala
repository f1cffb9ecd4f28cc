package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.bench.Harness
import repro.cluster.{Means, Median}
import repro.core.CoreConf
import repro.join.{GYO, Relation}

/** spark-submit entrypoint for the empirical Table 1 (T1-median / T1-means).
  *
  * Usage: RunTable1 [median|means] [rows] [nKeys] [k] [eps]
  * Defaults: rows=3000, nKeys=500, k=5, eps=0.5 — a larger path join than
  * the bench suites' Table1Workload (rows=2000, nKeys=400); pass
  * `median 2000 400` to run that configuration.
  */
object RunTable1 {
  def main(args: Array[String]): Unit = {
    val obj = if (args.headOption.contains("means")) Means else Median
    val rows = args.lift(1).map(_.toLong).getOrElse(3000L)
    val nKeys = args.lift(2).map(_.toLong).getOrElse(500L)
    val k = args.lift(3).map(_.toInt).getOrElse(5)
    val eps = args.lift(4).map(_.toDouble).getOrElse(0.5)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-table1")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val r1 = SynthData.pathR1(spark, rows, nKeys, seed = 100).cache()
    val r2 = SynthData.pathR2(spark, rows, nKeys, nKeys, seed = 200).cache()
    val r3 = SynthData.pathR3(spark, rows, nKeys, seed = 300).cache()
    r1.count(); r2.count(); r3.count()
    val q = GYO.joinTree(Seq(
      Relation("r1", r1), Relation("r2", r2), Relation("r3", r3))).get

    val conf = CoreConf(epsilon = eps, cellsPerSide = 8, sampleSize = 30000,
      heavyFraction = 0.02, seed = 7)
    val out = Harness.table1(q, obj, k, conf,
      includeSlow = rows <= 5000, slowConf = conf.copy(cellsPerSide = 4))
    println(Harness.fmt(s"T1-${if (obj == Means) "means" else "median"} " +
      s"path(rows=$rows,keys=$nKeys) k=$k eps=$eps", out))
    spark.stop()
  }
}
