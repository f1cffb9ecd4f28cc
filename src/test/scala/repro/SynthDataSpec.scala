package repro

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

class SynthDataSpec extends SparkSpec {

  test("generated rows do not depend on the session's default parallelism") {
    def draw(): Seq[Seq[Row]] = Seq[DataFrame](
      SynthData.pathR1(spark, 2000, 400, seed = 100),
      SynthData.pathR2(spark, 2000, 400, 400, seed = 200),
      SynthData.pathR3(spark, 2000, 400, seed = 300),
      SynthData.triangleR(spark, 2000, 600, seed = 1),
      // dates collect as strings: java.sql.Date needs module access the test JVM lacks
      SynthData.lineitem(spark, sf = 0.001)
        .withColumn("l_shipdate", col("l_shipdate").cast("string")),
    ).map(_.collect().toSeq)
    val default = draw()
    spark.conf.set("spark.sql.leafNodeDefaultParallelism", "7")
    val seven = try draw() finally spark.conf.unset("spark.sql.leafNodeDefaultParallelism")
    val differing = default.indices.filter(i => default(i) != seven(i))
    assert(differing.isEmpty, s"tables $differing differ under 7 leaf partitions")
  }
}
