package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Cyclic, ScalingK, ScalingN, Table1Workload}
import repro.cluster.{Means, Median}

/** spark-submit entrypoint: runs one reproduced table and prints it.
  *
  * Usage: Run <t1-median|t1-means|t2|t3|t4> [sizes...]
  * {{{
  *   t1-median, t1-means  [rows] [keys]
  *   t2                   [rows] [keys,keys,...]
  *   t3                   [rows] [keys] [k,k,...]
  *   t4                   [rows] [keys]
  * }}}
  * A size left out takes the bench suite's value. The master is
  * `$SPARK_MASTER` (default `local[*]`).
  */
object Run {
  private val Usage = "usage: Run <t1-median|t1-means|t2|t3|t4> [sizes...]"

  def main(args: Array[String]): Unit = {
    val sizes = args.drop(1)
    def size[A](i: Int, default: A)(parse: String => A): A =
      sizes.lift(i).map(parse).getOrElse(default)
    def longs(s: String): Seq[Long] = s.split(",").toSeq.map(_.toLong)

    val table: SparkSession => String = args.headOption match {
      case Some(t @ ("t1-median" | "t1-means")) => spark =>
        Table1Workload.run(spark, if (t == "t1-means") Means else Median,
          size(0, Table1Workload.rows)(_.toLong), size(1, Table1Workload.nKeys)(_.toLong)).text
      case Some("t2") => spark =>
        ScalingN.run(spark, size(0, ScalingN.rows)(_.toLong), size(1, ScalingN.sweep)(longs)).text
      case Some("t3") => spark =>
        ScalingK.run(spark, size(0, Table1Workload.rows)(_.toLong),
          size(1, Table1Workload.nKeys)(_.toLong), size(2, ScalingK.ks)(longs(_).map(_.toInt))).text
      case Some("t4") => spark =>
        Cyclic.run(spark, size(0, Cyclic.rows)(_.toLong), size(1, Cyclic.nKeys)(_.toLong)).text
      case _ =>
        Console.err.println(Usage)
        sys.exit(2)
    }

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(table(spark))
    finally spark.stop()
  }
}
