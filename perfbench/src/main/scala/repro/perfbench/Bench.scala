package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.census.CensusData
import repro.core.{CExtension, CExtensionResult}
import repro.core.model._
import repro.eval.{ErrorMeasures, Harness}
import scala.collection.immutable.ListMap
import scala.collection.mutable

/** The C-Extension benchmark: one process sets up a Census workload, solves
  * it repeatedly with `CExtension.run` in hybrid mode, checks every output,
  * and prints its metrics. `--trace 1` instead runs traced solves and
  * prints per-layer metrics. See `perfbench/README.md`.
  */
object Bench {

  /** A Census dataset at `scale` with one CC set and one DC set. */
  final case class Workload(name: String, scale: Double, ccSet: String, dcSet: String)

  val Workloads: Seq[Workload] = Seq(
    Workload("clique-3x", 3.0, "good", "all"),
    Workload("ilp-2x", 2.0, "bad", "all"))

  val NAreas = 12
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 2
  /** Untimed, unchecked solves first: the JIT keeps speeding solves up for a few. */
  val WarmupSolves = 2
  /** Timed solves per run, at least, however long they take. */
  val MinSolves = 2
  /** Untimed evaluations of the last output first: the first one computes
    * what the solve left uncomputed, and the JIT keeps speeding evaluations
    * up for a few.
    */
  val EvalWarmups = 1
  /** Timed evaluations of the last output after those; `eval_s` is their
    * median.
    */
  val EvalReps = 3

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        cores: Int, shufflePartitions: Int, outDir: String,
                        commit: String, sourceSha: String)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val name = need("workload")
    val w = Workloads.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; one of ${Workloads.map(_.name).mkString(", ")}"))
    Args(w, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         need("cores").toInt, need("shuffle-partitions").toInt, need("out"),
         kv.getOrElse("commit", "unknown"), kv.getOrElse("source-sha", "unknown"))
  }

  /** A local session; `rep` gives each set-up its own scratch directory,
    * so a stopped session's clean-up cannot race the next one.
    */
  def session(a: Args, rep: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${a.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", a.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${a.outDir}/spark-local/$rep")
      .config("spark.sql.warehouse.dir", s"${a.outDir}/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def median(xs: Seq[Double]): Double = ErrorMeasures.median(xs)

  private val started = System.nanoTime()

  /** Progress line on stderr, with seconds since the process started. */
  def progress(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - started) / 1e9}%7.2fs] $msg")

  def secondsOf[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val out = body
    (out, (System.nanoTime() - t0) / 1e9)
  }

  /** Everything one set-up produces; the session stays open for the solves. */
  final class Setup(val spark: SparkSession, val data: Harness.Data,
                    val ccs: Seq[CardinalityConstraint], val dcs: Seq[DenialConstraint]) {
    val schema: DbSchema = Harness.schema
    val r1: DataFrame = CensusData.blind(data.persons)
    val r2: DataFrame = data.housing
    lazy val checker = new OutputCheck(r1, r2, schema, dcs, ccs)
  }

  final case class SetupTimes(totalS: Double, generateS: Double, ccTargetsS: Double)

  /** Spark session start, Census generation with caching, and CC target
    * counting on the ground-truth join, `SetupReps` times from a stopped
    * session; the last set-up is kept.
    */
  def setUp(a: Args): (Setup, Seq[SetupTimes]) = {
    var last: Setup = null
    val times = (1 to SetupReps).map { rep =>
      if (last != null) {
        Harness.release(last.data)
        last.spark.stop()
        SparkSession.clearActiveSession(); SparkSession.clearDefaultSession()
      }
      val t0 = System.nanoTime()
      val spark = session(a, rep)
      val (data, genS) = secondsOf(Harness.data(spark, a.workload.scale, NAreas, a.seed))
      val (ccs, ccS) = secondsOf(Harness.ccSet(data, a.workload.ccSet, NAreas))
      last = new Setup(spark, data, ccs, Harness.dcSet(a.workload.dcSet))
      val t = SetupTimes((System.nanoTime() - t0) / 1e9, genS, ccS)
      progress(s"set-up: $t")
      t
    }
    (last, times)
  }

  /** Checks one solve's output. It fails if the check finds a violation,
    * a DC is violated, or a CC of a good set is missed.
    */
  def checkSolve(s: Setup, w: Workload, r1Hat: DataFrame, r2Hat: DataFrame,
                 vjoin: DataFrame): (CheckReport, Seq[String]) = {
    val check = s.checker.check(r1Hat, r2Hat, vjoin)
    val problems = mutable.ArrayBuffer.empty[String] ++= check.failures
    if (check.dcViolating > 0) problems += s"${check.dcViolating} R̂1 tuples violate a DC"
    val missed = s.ccs.zip(check.ccCounts).count { case (cc, n) => n != cc.target }
    if (w.ccSet == "good" && missed > 0) problems += s"$missed CCs of the good set missed"
    (check, problems.toSeq)
  }

  /** `ErrorMeasures` on one output: the evaluation a Fig 8/10 row pays. */
  final case class Eval(ccErrs: Seq[Double], dcErr: Double, ccS: Double, dcS: Double) {
    def seconds: Double = ccS + dcS
  }

  /** Evaluates an output with `ErrorMeasures`. */
  def evaluate(s: Setup, r1Hat: DataFrame, r2Hat: DataFrame,
               trace: Option[(Tracer, Int)] = None): Eval = {
    def timed[T](name: String)(body: => T): (T, Double) = trace match {
      case Some((t, id)) => t.span(id, name, "eval")(secondsOf(body))
      case None => secondsOf(body)
    }
    val joined = r1Hat.join(r2Hat, Seq(s.schema.r1.fk))
    val (ccErrs, ccS) = timed("eval.cc")(ErrorMeasures.ccRelErrors(joined, s.ccs))
    val (dcErr, dcS) = timed("eval.dc")(ErrorMeasures.dcViolationFraction(r1Hat, s.schema, s.dcs))
    Eval(ccErrs, dcErr, ccS, dcS)
  }

  /** Where the evaluation and the independent check disagree on an output. */
  def disagreements(s: Setup, ev: Eval, check: CheckReport): Seq[String] = {
    val problems = mutable.ArrayBuffer.empty[String]
    if (ev.dcErr != check.dcErr) problems += s"ErrorMeasures DC error ${ev.dcErr}, check finds ${check.dcErr}"
    val checkErrs = s.ccs.zip(check.ccCounts).map { case (cc, n) => OutputCheck.relError(n, cc.target) }
    val ccDiff = checkErrs.zip(ev.ccErrs).count { case (x, y) => math.abs(x - y) > 1e-12 }
    if (ccDiff > 0) problems += s"ErrorMeasures and check disagree on $ccDiff CC errors"
    problems.toSeq
  }

  def release(res: CExtensionResult): Unit = {
    res.vjoin.unpersist(blocking = true); res.r1Hat.unpersist(blocking = true)
  }

  def env(a: Args, spark: SparkSession): ListMap[String, Any] = ListMap(
    "cores" -> a.cores,
    "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> a.shufflePartitions,
    "driver_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "scala" -> scala.util.Properties.versionNumberString,
    "spark" -> spark.version,
    "workload" -> a.workload.name,
    "scale" -> a.workload.scale,
    "seed" -> a.seed,
    "git_commit" -> a.commit,
    "source_sha256" -> a.sourceSha)

  /** Prints a metric table to stdout, one metric per line with its unit. */
  def printMetrics(title: String, ms: Seq[(String, Double, String)]): Unit = {
    println(title)
    ms.foreach { case (n, v, u) => println(f"  $n%-28s $v%14.6f $u") }
  }

  def main(argv: Array[String]): Unit = {
    val a = parseArgs(argv)
    val (s, setups) = setUp(a)
    val result = if (a.trace) Traced.run(a, s, setups) else untraced(a, s, setups)
    s.spark.stop()
    println(result)
  }

  /** The end-to-end run: `WarmupSolves` untimed solves, then timed solves
    * for `a.seconds` (at least `MinSolves`), each checked; the last output
    * is also evaluated with `ErrorMeasures`, `EvalWarmups` times untimed and
    * `EvalReps` times timed. If an evaluation disagrees with the check, the
    * last solve counts as failed. Only the timed solves count as attempted.
    */
  def untraced(a: Args, s: Setup, setups: Seq[SetupTimes]): String = {
    val w = a.workload
    var attempted = 0; var failed = 0
    val problems = mutable.ArrayBuffer.empty[String]
    val solveS = mutable.ArrayBuffer.empty[Double]
    // Live heap before the first solve; `retained_heap_mb` is what the
    // solves add to it.
    val baseHeapMb = Tracer.liveHeapMb()
    var heapMb = Double.NaN
    var last: Option[(CExtensionResult, CheckReport)] = None
    val fresh = mutable.Set.empty[Long]

    def once(): Unit = {
      last.foreach { case (res, _) => release(res) }
      last = None
      attempted += 1
      try {
        // Each timed solve starts from a collected heap, not the last one's garbage.
        System.gc()
        val (res, secs) = secondsOf(CExtension.run(s.r1, s.r2, s.schema, s.ccs, s.dcs))
        if (heapMb.isNaN) heapMb = Tracer.liveHeapMb() - baseHeapMb
        val (check, bad) = checkSolve(s, w, res.r1Hat, res.r2Hat, res.vjoin)
        progress(f"solve $attempted: $secs%.3f s${if (bad.isEmpty) "" else ", FAILED"}")
        fresh += check.nFreshR2
        if (bad.nonEmpty) { failed += 1; problems ++= bad }
        else solveS += secs
        last = Some((res, check))
      } catch {
        case e: Exception => failed += 1; problems += s"solve threw $e"
      }
    }

    (1 to WarmupSolves).foreach { i =>
      val (res, secs) = secondsOf(CExtension.run(s.r1, s.r2, s.schema, s.ccs, s.dcs))
      release(res)
      progress(f"warm-up solve $i: $secs%.3f s")
    }
    val t0 = System.nanoTime()
    while (attempted < MinSolves || (System.nanoTime() - t0) / 1e9 < a.seconds) once()
    val (res, check) = last.getOrElse(sys.error(s"the last solve failed: ${problems.mkString("; ")}"))
    val evals = (1 to EvalWarmups + EvalReps).map { _ =>
      // Each evaluation, too, starts from a collected heap.
      System.gc()
      val ev = evaluate(s, res.r1Hat, res.r2Hat)
      progress(f"evaluated: ${ev.seconds}%.3f s")
      ev
    }
    val ev = evals.head
    release(res)
    val evalProblems = evals.flatMap(disagreements(s, _, check)).distinct
    if (evalProblems.nonEmpty && check.ok) failed += 1
    problems ++= evalProblems
    if (fresh.size > 1) problems += s"fresh R̂2 rows differ between solves: ${fresh.mkString(", ")}"
    if (solveS.isEmpty) sys.error(s"no timed solve succeeded: ${problems.mkString("; ")}")
    val timedEvals = evals.drop(EvalWarmups).map(_.seconds)

    val solve = median(solveS.toSeq)
    val endToEnd = ListMap(
      "solve_s" -> (solve, "s"),
      "persons_per_s" -> (s.data.nPersons / solve, "1/s"),
      "eval_s" -> (median(timedEvals), "s"),
      "setup_s" -> (median(setups.map(_.totalS)), "s"),
      "retained_heap_mb" -> (heapMb, "MB"))
    val quality = ListMap(
      "cc_err_median" -> (ErrorMeasures.median(ev.ccErrs), "ratio"),
      "cc_err_mean" -> (ErrorMeasures.mean(ev.ccErrs), "ratio"),
      "dc_err" -> (ev.dcErr, "ratio"),
      "fresh_r2_rows" -> (check.nFreshR2.toDouble, "count"),
      "failed_frac" -> (failed.toDouble / attempted, "ratio"))
    printMetrics(s"C-Extension benchmark, workload ${w.name}: |R1| = ${s.data.nPersons} persons, " +
      s"|R2| = ${s.data.nHouses} houses, ${s.ccs.size} CCs, ${s.dcs.size} DCs",
      (endToEnd ++ quality).toSeq.map { case (n, (v, u)) => (n, v, u) })
    println(s"  solve_s: median of ${solveS.size} timed solves after $WarmupSolves warm-up solves: " +
      solveS.map(x => f"$x%.3f").mkString(" "))
    println(s"  setup_s: median of $SetupReps set-ups: " + setups.map(t => f"${t.totalS}%.3f").mkString(" "))
    println(s"  eval_s: median of $EvalReps evaluations of the last output, after $EvalWarmups untimed ones: " +
      timedEvals.map(x => f"$x%.3f").mkString(" "))
    println(f"  retained_heap_mb: live heap after the first timed solve minus the $baseHeapMb%.3f MB " +
      "before the first solve")
    problems.distinct.take(10).foreach(p => println(s"  FAILED: $p"))
    println("env " + Json(env(a, s.spark)))
    Json(ListMap(
      "correct" -> (failed == 0 && problems.isEmpty),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> endToEnd.map { case (n, (v, u)) => n -> ListMap("value" -> v, "unit" -> u) }))
  }
}
