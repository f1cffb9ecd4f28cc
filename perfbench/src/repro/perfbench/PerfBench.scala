package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, sum}
import repro.baselines.CostEval
import repro.cluster.{KMeansAlg, Means, Weighted}
import repro.cluster.Weighted.Pt
import repro.core.{ClusterOut, FastBatched, RelClusteringFast, RelKClustering}
import repro.join.{LeafHistogram, LocalJoinIndex, Relation, Yannakakis}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Relational-clustering benchmark: time to k centers over an unmaterialized
  * join, and the exact cost of those centers relative to the two-step
  * full-join baseline, on one named workload.
  *
  * {{{
  * PerfBench --workload path-small --seed 0 --seconds 20 --trace 0 --work-dir DIR
  * }}}
  *
  * One JVM, one local Spark session, one caller: each method starts after
  * the previous one returns. `--trace 0` times NEW-fast in a closed loop
  * and prints the end-to-end metrics; `--trace 1` calls the
  * public functions of every layer in the order `RelKClustering.run` does,
  * times the baselines once, and prints the per-layer metrics. The last line
  * of standard output is the result object; the line before it records the
  * machine, the input fingerprint and the repetition counts.
  */
object PerfBench {
  /** Inputs are generated with this many partitions whatever the thread
    * count: `rand(seed)` is seeded per partition, so this keeps the data the
    * same on every machine.
    */
  val Parallelism = 4
  val SetupReps = 3
  val MinSolves = 2
  val BoxCount = 64

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        workDir: String, commit: String)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = a.workload
    val threads = math.min(Parallelism, Runtime.getRuntime.availableProcessors)
    val (spark, sessionS) = time(SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.default.parallelism", Parallelism.toLong)
      .config("spark.sql.shuffle.partitions", Parallelism.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${a.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${a.workDir}/spark-warehouse")
      .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val setups = (1 to SetupReps).map { i =>
        val s = generate(spark, w, a.seed)
        if (i < SetupReps) s._1.tables.foreach(_._2.unpersist(blocking = true))
        s
      }
      val in = setups.last._1
      // the first solves in a JVM are up to twice as slow as later ones (JIT,
      // Spark codegen): untimed NEW-fast solves on the workload's own query,
      // around the full-join solve whose centers are the ratios' reference
      val (fullJoin, warmS) = time {
        Methods.newFast(in.q, w).run()
        val fj = Methods.fullJoin(in.q, w).run()
        Methods.newFast(in.q, w).run()
        fj
      }
      val setupS = sessionS + median(setups.map(s => s._2 + s._3)) + warmS
      val qd = Yannakakis.countJoin(in.q)
      val record = mutable.LinkedHashMap[String, Any](
        "workload" -> w.name,
        "seed" -> a.seed,
        "machine" -> machine(spark, threads, a),
        "fingerprint" -> fingerprint(in, qd),
        "setup" -> Map("session_s" -> sessionS, "generate_s" -> setups.map(_._2),
          "plan_s" -> setups.map(_._3), "warmup_s" -> warmS))
      val result =
        if (a.trace) new Traced(spark, w, in, qd, setups.map(_._2), setups.map(_._3), record).run()
        else new EndToEnd(w, in, qd, fullJoin, a.seconds, setupS, record).run()
      val json = new ObjectMapper().registerModule(DefaultScalaModule)
      println(json.writeValueAsString(record))
      println(json.writeValueAsString(result))
    } finally spark.stop()
  }

  /** Generates, caches and counts the input relations, then plans the query
    * through its GHD. Returns the inputs with the generation and planning
    * times.
    */
  private def generate(spark: SparkSession, w: Workload, seed: Long): (Inputs, Double, Double) = {
    val ((tables, rows), genS) = time {
      val ts = w.tables(spark, seed).map { case (n, df) => (n, df.cache()) }
      (ts, ts.map(_._2.count()))
    }
    val (q, planS) = time(w.plan(tables.map { case (n, df) => Relation(n, df) }))
    (Inputs(tables, q, rows), genS, planS)
  }

  private def fingerprint(in: Inputs, qd: Long): Map[String, Any] = Map(
    "rows" -> in.tables.map(_._1).zip(in.rows).toMap,
    "join_size" -> qd,
    "column_sums" -> in.tables.map { case (n, df) =>
      val sums = df.agg(sum(col(df.columns.head)), df.columns.tail.map(c => sum(col(c))): _*).head
      n -> df.columns.indices.map(i => df.columns(i) -> sums.getDouble(i)).toMap
    }.toMap)

  private def machine(spark: SparkSession, threads: Int, a: Args): Map[String, Any] = Map(
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "threads" -> threads,
    "master" -> spark.sparkContext.master,
    "default_parallelism" -> spark.sparkContext.defaultParallelism,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "java" -> System.getProperty("java.version"),
    "spark" -> spark.version,
    "commit" -> a.commit,
    "seed" -> a.seed)

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private val threadsBean = ManagementFactory.getThreadMXBean

  /** CPU seconds used so far by the JVM's application threads: Spark's driver
    * and executor threads, not JIT compilation or GC, whose share falls run
    * by run as the JIT settles. Time the host takes from this virtual machine
    * does not count, unlike wall time.
    */
  def cpuSeconds(): Double =
    threadsBean.getAllThreadIds.map(threadsBean.getThreadCpuTime).filter(_ > 0).sum / 1e9

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val m = s.length / 2
      if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }

  def metric(value: Double, unit: String): Map[String, Any] = Map("value" -> value, "unit" -> unit)

  def sameCenters(a: Array[Pt], b: Array[Pt]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  /** Highest driver heap in use after a garbage collection (the sum over
    * heap pools of their usage after the latest collection), sampled every
    * few milliseconds while `f` runs.
    */
  def heapPeakMb[A](f: => A): (A, Double) = {
    val pools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.isCollectionUsageThresholdSupported)
    def live(): Long = pools.map(p => Option(p.getCollectionUsage).map(_.getUsed).getOrElse(0L)).sum
    @volatile var peak = 0L
    @volatile var on = true
    val sampler = new Thread(() => {
      while (on) { peak = math.max(peak, live()); Thread.sleep(5) }
    })
    sampler.setDaemon(true)
    sampler.start()
    try (f, { on = false; sampler.join(); math.max(peak, live()) / 1e6 })
    finally on = false
  }

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, usage(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(
      usage(s"unknown workload ${need("workload")}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    Args(w, m.getOrElse("seed", "0").toLong, m.getOrElse("seconds", "20").toDouble,
      m.getOrElse("trace", "0") == "1", need("work-dir"), m.getOrElse("commit", "unknown"))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}

/** Closed-loop timing of NEW-fast: at least `MinSolves` solves, and further
  * solves while they end within `seconds`. The metric is the median of the
  * application-thread CPU seconds each solve costs; wall times go to the
  * record line.
  * The ratio uses exact costs from `CostEval.cost`, computed after the loop,
  * against the set-up's full-join centers.
  */
final class EndToEnd(w: Workload, in: Inputs, qd: Long, fullJoin: Outcome, seconds: Double,
                     setupS: Double, record: mutable.Map[String, Any]) {
  import PerfBench._

  private val q = in.q

  def run(): Map[String, Any] = {
    val method = Methods.newFast(q, w)
    val times = mutable.ArrayBuffer.empty[Double]
    val cpuTimes = mutable.ArrayBuffer.empty[Double]
    // distinct center sets, with how many solves produced each
    val outs = mutable.ArrayBuffer.empty[(Outcome, Int)]
    val problems = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0
    def check(m: Method, o: Outcome): Seq[String] =
      Methods.check(o, w.k, q.allAttrs.length, qd).map(e => s"${m.key}: $e")

    attempted += 1
    problems ++= check(Methods.fullJoin(q, w), fullJoin)
    if (problems.nonEmpty) failed += 1

    val t0 = System.nanoTime()
    var solves = 0
    var last = 0.0
    while (solves < MinSolves || (System.nanoTime() - t0) / 1e9 + last <= seconds) {
      solves += 1
      attempted += 1
      try {
        val cpu0 = cpuSeconds()
        val (o, t) = time(method.run())
        val cpu = cpuSeconds() - cpu0

        last = t
        val errs = check(method, o)
        if (errs.nonEmpty) { failed += 1; problems ++= errs }
        else {
          times += t
          cpuTimes += cpu
          val i = outs.indexWhere(s => sameCenters(s._1.centers, o.centers))
          if (i < 0) outs += ((o, 1)) else outs(i) = (outs(i)._1, outs(i)._2 + 1)
        }
      } catch {
        case e: Exception => failed += 1; problems += s"${method.key}: threw $e"
      }
    }

    // exact costs, outside the timed section
    def cost(o: Outcome) = CostEval.cost(q, o.centers, o.attrs, Means)
    val ref = cost(fullJoin)
    val ratios = outs.toSeq.flatMap { case (o, n) =>
      val r = cost(o) / ref
      if (!(r <= method.ratioBound)) {
        failed += n; problems += f"${method.key}: cost ratio $r%.4f above ${method.ratioBound}"
      }
      Seq.fill(n)(r)
    }

    record("reps") = times.length
    record("new_fast_times_s") = times.toSeq
    record("new_fast_cpu_s") = cpuTimes.toSeq
    record("distinct_center_sets") = outs.length
    record("problems") = problems.toSeq
    problems.foreach(p => Console.err.println(s"perfbench: check failed: $p"))

    Map("correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> mutable.LinkedHashMap(
        "setup_s" -> metric(setupS, "s"),
        "new_fast_cpu_s" -> metric(median(cpuTimes.toSeq), "s"),
        "new_fast_ratio" -> metric(median(ratios), "ratio"),
        "ok_frac" -> metric(1.0 - failed.toDouble / attempted, "frac")))
  }
}

/** The traced run: the NEW-fast pipeline decomposed into the public calls
  * `RelKClustering.run` makes, in its order, each inside a span; then
  * CountRect/SampleRect on fixed boxes, counting and materialization, and
  * one timed, checked and scored run of each baseline.
  */
final class Traced(spark: SparkSession, w: Workload, in: Inputs, qd: Long,
                   genS: Seq[Double], planS: Seq[Double], record: mutable.Map[String, Any]) {
  import PerfBench._

  private val q = in.q
  private val tr = new Tracer(spark.sparkContext)
  private val problems = mutable.ArrayBuffer.empty[String]
  private var attempted = 0

  private def expect(what: String, ok: Boolean): Unit = {
    attempted += 1
    if (!ok) problems += what
  }

  def run(): Map[String, Any] = {
    val m = mutable.LinkedHashMap.empty[String, Any]
    m("synth.generate_s") = metric(median(genS), "s")
    m("synth.input_rows") = metric(in.rows.sum.toDouble, "rows")
    m("join.ghd_s") = metric(median(planS), "s")

    // untraced references for trace.coverage, one on each side of the traced
    // pipeline so that JIT progress between them evens out
    def untraced() = time(RelKClustering.run(q, w.k, KMeansAlg(), w.conf, FastBatched))
    val (ref, refBefore) = untraced()
    val (pipe, heapMb) = heapPeakMb(pipeline())
    val refS = (refBefore + untraced()._2) / 2
    expect("traced NEW-fast centers equal RelKClustering.run's", sameCenters(pipe.centers, ref.centers))
    expect(s"traced |q(D)| ${pipe.n} equals countJoin $qd", pipe.n == qd.toDouble)

    m("join.reduce_s") = metric(tr.seconds("join.reduce"), "s")
    m("join.reduce_rows") = metric(pipe.reducedRows.toDouble, "rows")
    m("join.leaf_hist_s") = metric(tr.seconds("join.leaf_hist"), "s")
    m("join.leaf_hist_calls") = metric(pipe.leafCalls.toDouble, "count")
    m("join.leaf_hist_bins") = metric(pipe.leafBins.toDouble, "count")
    m("join.index_build_s") = metric(tr.seconds("join.index_build"), "s")
    // LocalJoinIndex.build collects exactly the reduced relations
    m("join.index_rows") = metric(pipe.reducedRows.toDouble, "rows")
    m("join.sample_s") = metric(tr.seconds("join.sample"), "s")

    val (countMs, sampleMs, nonempty) = boxes(pipe.index)
    m("join.count_box_ms") = metric(countMs, "ms")
    m("join.sample_box_ms") = metric(sampleMs, "ms")
    m("join.count_box_nonempty_frac") = metric(nonempty, "frac")

    val cj = tr.span("join.count_join")(Yannakakis.countJoin(q))
    expect(s"countJoin $cj repeats $qd", cj == qd)
    m("join.count_join_s") = metric(tr.seconds("join.count_join"), "s")
    val matRows = tr.span("join.materialize")(Yannakakis.materialize(q).count())
    expect(s"materialized rows $matRows equal |q(D)| $qd", matRows == qd)
    m("join.materialize_s") = metric(tr.seconds("join.materialize"), "s")
    m("join.materialize_rows") = metric(matRows.toDouble, "rows")

    val exact = tr.span("baselines.cost_eval")(CostEval.cost(q, pipe.centers, pipe.attrs, Means))
    expect(s"r_u ${pipe.rU} upper-bounds the exact cost $exact", pipe.rU >= exact)
    m("core.coreset_s") = metric(tr.seconds("core.coreset"), "s")
    m("core.coreset_size") = metric(pipe.maxCoreset.toDouble, "count")
    m("core.inner_nodes") = metric(pipe.innerNodes.toDouble, "count")
    m("core.ru_ratio") = metric(pipe.rU / exact, "ratio")
    m("cluster.gamma_leaf_s") = metric(tr.seconds("cluster.gamma_leaf"), "s")
    m("cluster.gamma_coreset_s") = metric(tr.seconds("cluster.gamma_coreset"), "s")
    m("baselines.cost_eval_s") = metric(tr.seconds("baselines.cost_eval"), "s")

    // one checked, timed and scored run of each baseline
    val base = Methods.all(q, w).tail.map { b =>
      val (o, t) = time(b.run())
      val errs = Methods.check(o, w.k, q.allAttrs.length, qd)
      expect(s"${b.key} output checks: ${errs.mkString("; ")}", errs.isEmpty)
      b.key -> (b, o, t, CostEval.cost(q, o.centers, o.attrs, Means))
    }.toMap
    val refCost = base("full_join")._4
    m("baselines.full_join_s") = metric(base("full_join")._3, "s")
    for (key <- Seq("rkmeans", "relkmpp")) {
      val (b, _, t, c) = base(key)
      expect(f"$key cost ratio ${c / refCost}%.4f within ${b.ratioBound}", c / refCost <= b.ratioBound)
      m(s"baselines.${key}_s") = metric(t, "s")
      m(s"baselines.${key}_ratio") = metric(c / refCost, "ratio")
    }
    m("baselines.rk_grid_cells") = metric(base("rkmeans")._2.size, "count")
    m("baselines.relkmpp_coreset") = metric(base("relkmpp")._2.size, "count")
    m("baselines.full_join_clustered_rows") = metric(base("full_join")._2.size, "rows")

    tr.drain()
    for (phase <- Seq("join.reduce", "join.leaf_hist", "join.index_build", "join.materialize")) {
      val c = tr.listener.counts(phase)
      m(s"$phase.spark_jobs") = metric(c.jobs.toDouble, "count")
      m(s"$phase.spark_tasks") = metric(c.tasks.toDouble, "count")
      m(s"$phase.shuffle_mb") = metric(c.shuffleBytes / 1e6, "MB")
    }
    m("heap_peak_mb") = metric(heapMb, "MB")
    m("jvm.gc_s") = metric(gcSeconds(), "s")
    val covered = Seq("join.reduce", "join.index_build", "join.sample", "join.leaf_hist",
      "cluster.gamma_leaf", "core.coreset").map(tr.seconds).sum
    m("trace.coverage") = metric(covered / refS, "ratio")
    m("new_fast.wall_s") = metric(refS, "s")

    record("new_fast_untraced_s") = refS
    record("spans") = tr.all.groupBy(_.name).map { case (n, ss) =>
      n -> Map("count" -> ss.length, "seconds" -> ss.map(s => (s.endNs - s.startNs) / 1e9).sum)
    }
    record("problems") = problems.toSeq
    problems.foreach(p => Console.err.println(s"perfbench: check failed: $p"))
    Map("correct" -> problems.isEmpty, "attempted" -> attempted, "failed" -> problems.length,
      "metrics" -> m)
  }

  final case class Pipe(index: LocalJoinIndex, attrs: Seq[String], centers: Array[Pt],
                        rU: Double, n: Double, reducedRows: Long, leafCalls: Int,
                        leafBins: Long, innerNodes: Int, maxCoreset: Int)

  /** RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched), one public
    * call per span, with the same random stream so the centers match.
    */
  private def pipeline(): Pipe = {
    val conf = w.conf
    val gamma = KMeansAlg()
    val (qr, reducedRows) = tr.span("join.reduce") {
      val red = Yannakakis.fullReduce(q)
      val cached = red.copy(relations = red.relations.map(r => r.copy(df = r.df.cache())))
      (cached, cached.relations.map(_.df.count()).sum)
    }
    try {
      val index = tr.span("join.index_build")(LocalJoinIndex.build(qr))
      val n = index.n
      val rng = new Random(conf.seed)
      val attrs = qr.allAttrs.filterNot(_.startsWith(Yannakakis.CarryPrefix))
      val dimsOf = attrs.map(index.attrIdx).toArray
      val sample = tr.span("join.sample")(index.sampleUniform(conf.sampleSize, rng))
      val alpha = 1 + conf.epsilon // k-means, continuous centers
      var leafCalls = 0; var leafBins = 0L; var inner = 0; var maxCoreset = 0

      def solve(lo: Int, hi: Int): (Array[Pt], Double) =
        if (hi - lo == 1) {
          val hist = tr.span("join.leaf_hist")(LeafHistogram.histogram(qr, attrs(lo)))
          leafCalls += 1; leafBins += hist.length
          tr.span("cluster.gamma_leaf") {
            val pts = hist.map(h => Array(h._1))
            val wts = hist.map(_._2)
            val s = gamma.cluster(pts, wts, w.k, rng)
            (s, Weighted.cost(pts, wts, s, Means))
          }
        } else {
          val mid = lo + (hi - lo) / 2
          val (sv, rv) = solve(lo, mid)
          val (sz, rz) = solve(mid, hi)
          val x = for (a <- sv; b <- sz) yield a ++ b
          val out: ClusterOut = tr.span("core.coreset")(RelClusteringFast.runBatched(
            sample, n, dimsOf.slice(lo, hi), x, alpha, rv + rz, w.k, gamma, conf, rng))
          inner += 1; maxCoreset = math.max(maxCoreset, out.coresetSize)
          // the gamma share of the coreset step, on its own random stream
          tr.span("cluster.gamma_coreset")(
            gamma.cluster(out.corePts, out.coreW, w.k, new Random(conf.seed)))
          (out.centers, out.rU)
        }

      val (centers, rU) = solve(0, attrs.length)
      Pipe(index, attrs, centers, rU, n, reducedRows, leafCalls, leafBins, inner, maxCoreset)
    } finally qr.relations.foreach(_.df.unpersist())
  }

  /** CountRect/SampleRect on a fixed, seeded set of boxes inside the data's
    * bounding box: per-call median milliseconds, and the share of boxes that
    * hold at least one join result.
    */
  private def boxes(index: LocalJoinIndex): (Double, Double, Double) = {
    val rng = new Random(w.conf.seed)
    val (blo, bhi) = index.bounds
    val bs = Seq.fill(BoxCount) {
      val lo = new Array[Double](index.dim)
      val hi = new Array[Double](index.dim)
      for (i <- 0 until index.dim) {
        val span = bhi(i) - blo(i)
        val width = span * math.pow(10, -2.5 + 2 * rng.nextDouble()) // 0.3% to 30%
        lo(i) = blo(i) + (span - width) * rng.nextDouble()
        hi(i) = lo(i) + width
      }
      (lo, hi)
    }
    val counts = bs.map { case (lo, hi) => time(tr.span("join.count_box")(index.countBox(lo, hi))) }
    val samples = bs.map { case (lo, hi) =>
      time(tr.span("join.sample_box")(index.sampleBox(lo, hi, w.conf.perCellSamples, rng)))._2
    }
    (median(counts.map(_._2)) * 1e3, median(samples) * 1e3,
      counts.count(_._1 > 0).toDouble / counts.length)
  }
}
