package repro.bench

import repro.SparkSpec
import repro.cluster.Means
import repro.join.Yannakakis

class TablesSpec extends SparkSpec {

  test("T1-means on a tiny path join: every method, finite ratios, NEW-fast's |q(D)|") {
    val t = Table1Workload.run(spark, Means, rows = 200, keys = 50)
    assert(t.rows.map(_.method) == Seq(
      "NEW-fast (Alg3+Alg2)", "NEW-fast discrete", "NEW-slow (Alg3+Alg1)",
      "rk-means [Curtin 23]", "rel-k-means++ [Moseley 21]", "uniform-sample [Chen 22]",
      "full-join (2-step)"))
    t.rows.foreach(r => assert(java.lang.Double.isFinite(r.ratio) && r.ratio > 0, r))
    val n = Yannakakis.countJoin(Table1Workload.path(spark, 200, 50))
    assert(t.rows.head.note.startsWith(s"|q(D)|=$n "), t.rows.head.note)
    assert(t.text.linesIterator.length == t.rows.length + 2)
  }
}
