// Package core implements the paper's contribution: the XCBC build (the
// XSEDE Rocks roll whose contents Tables 1 and 2 enumerate, installed from
// scratch on bare metal) and the XNIT toolkit (the XSEDE Yum repository used
// to convert an existing cluster in place). It ties every substrate together:
// packaging, repositories, provisioning, scheduling, monitoring, environment
// modules, power management, and compatibility checking.
package core

import (
	"fmt"
	"sync"

	"xcbc/internal/rpm"
)

// Catalog categories, matching the paper's table headings.
const (
	CategoryBasics    = "Basics"
	CategoryJobMgmt   = "Scheduler and Resource Manager"
	CategoryCompilers = "Compilers, libraries, and programming"
	CategorySciApps   = "Scientific Applications"
	CategoryMisc      = "Miscellaneous Tools"
	CategoryXSEDE     = "XSEDE Tools"
	CategoryRollPkg   = "Rocks optional rolls"
)

// entry is one row of the static catalog.
type entry struct {
	name      string
	version   string
	category  string
	summary   string
	requires  []string
	provides  []string
	conflicts []string
}

// XCBCVersion is the release the paper describes (XCBC 0.9, Rocks 6.1.1,
// CentOS 6.5).
const (
	XCBCVersion   = "0.9"
	RocksVersion  = "6.1.1"
	CentOSVersion = "6.5"
)

// catalogEntries is the XNIT package universe: everything in Tables 1 and 2
// plus the base-OS packages installation depends on. Versions are plausible
// EL6-era builds; the dependency web is closed over this list (a provisioning
// transaction over any appliance subset resolves).
//
// Notes on fidelity to the paper's tables:
//   - Table 1 "modules" is packaged as environment-modules (its RPM name).
//   - Table 1 "apache-ant" and Table 2's "ant" are the same RPM, listed once.
//   - Table 2 lists both "SHRiMP" and "shrimp"; they are one package (shrimp).
//   - Table 2 "scone" is the scons build tool, listed under Basics.
//   - "PSM API" is packaged as psm (infinipath-psm's provide name).
var catalogEntries = []entry{
	// --- Base OS / Basics (Table 1 part 1) ---
	{name: "kernel", version: "2.6.32-431.el6", category: CategoryBasics, summary: "Linux kernel"},
	{name: "glibc", version: "2.12-1.132.el6", category: CategoryBasics, summary: "GNU C library"},
	{name: "bash", version: "4.1.2-15.el6", category: CategoryBasics, summary: "GNU Bourne Again shell"},
	{name: "openssh-server", version: "5.3p1-94.el6", category: CategoryBasics, summary: "SSH daemon"},
	{name: "centos-release", version: "6.5-1.el6", category: CategoryBasics, summary: "CentOS 6.5 release files"},
	{name: "rocks", version: "6.1.1-1", category: CategoryBasics, summary: "Rocks cluster toolkit"},
	{name: "rocks-db", version: "6.1.1-1", category: CategoryBasics, summary: "Rocks frontend cluster database", requires: []string{"rocks"}},
	{name: "environment-modules", version: "3.2.10-2.el6", category: CategoryBasics, summary: "Environment modules (Table 1: modules)"},
	{name: "fdepend", version: "1.2-1", category: CategoryBasics, summary: "Fortran dependency generator"},
	{name: "gmake", version: "3.81-20.el6", category: CategoryBasics, summary: "GNU make (gmake alias)"},
	{name: "gnu-make", version: "3.81-20.el6", category: CategoryBasics, summary: "GNU make"},
	{name: "scons", version: "2.0.1-1.el6", category: CategoryBasics, summary: "SCons build tool", requires: []string{"python"}},

	// --- Scheduler and Resource Manager (Tables 1 and 2) ---
	{name: "torque", version: "4.2.10-1.el6", category: CategoryJobMgmt, summary: "Torque resource manager (pbs_mom, qsub/qstat/qdel)",
		conflicts: []string{"slurm", "sge"}},
	{name: "torque-server", version: "4.2.10-1.el6", category: CategoryJobMgmt, summary: "Torque server (pbs_server)", requires: []string{"torque"}},
	{name: "maui", version: "3.3.1-1.el6", category: CategoryJobMgmt, summary: "Maui scheduler", requires: []string{"torque"}},
	{name: "slurm", version: "14.03.3-1.el6", category: CategoryJobMgmt, summary: "SLURM workload manager (sbatch/squeue/scancel)",
		conflicts: []string{"torque", "sge"}},
	{name: "sge", version: "8.1.6-1.el6", category: CategoryJobMgmt, summary: "Son of Grid Engine",
		conflicts: []string{"torque", "slurm"}},

	// --- Compilers, libraries, and programming (Table 2) ---
	{name: "charm", version: "6.5.1-1.el6", category: CategoryCompilers, summary: "Charm++ parallel programming framework", requires: []string{"gcc"}},
	{name: "compat-gcc-34-g77", version: "3.4.6-19.el6", category: CategoryCompilers, summary: "Fortran 77 compatibility compiler"},
	{name: "gcc", version: "4.4.7-11.el6", category: CategoryCompilers, summary: "GNU C compiler", requires: []string{"glibc", "gmp", "mpfr"}},
	{name: "gcc-gfortran", version: "4.4.7-11.el6", category: CategoryCompilers, summary: "GNU Fortran compiler", requires: []string{"gcc", "libgfortran"}},
	{name: "fftw2", version: "2.1.5-21.el6", category: CategoryCompilers, summary: "FFTW 2 legacy FFT library"},
	{name: "fftw", version: "3.3.3-5.el6", category: CategoryCompilers, summary: "Fast Fourier transforms"},
	{name: "gmp", version: "4.3.1-7.el6", category: CategoryCompilers, summary: "GNU multiprecision arithmetic"},
	{name: "hdf5", version: "1.8.9-3.el6", category: CategoryCompilers, summary: "Hierarchical data format"},
	{name: "java-1.7.0-openjdk", version: "1.7.0.65-2.el6", category: CategoryCompilers, summary: "OpenJDK 7 runtime"},
	{name: "libRmath", version: "3.0.1-1.el6", category: CategoryCompilers, summary: "Standalone R math library"},
	{name: "libRmath-devel", version: "3.0.1-1.el6", category: CategoryCompilers, summary: "R math library headers", requires: []string{"libRmath"}},
	{name: "mpfr", version: "2.4.1-6.el6", category: CategoryCompilers, summary: "Multiple-precision floating point", requires: []string{"gmp"}},
	{name: "mpi4py-common", version: "1.3.1-1.el6", category: CategoryCompilers, summary: "Python MPI bindings, common files", requires: []string{"python"}},
	{name: "mpi4py-tools", version: "1.3.1-1.el6", category: CategoryCompilers, summary: "Python MPI tools", requires: []string{"mpi4py-common"}},
	{name: "mpi4py-openmpi", version: "1.3.1-1.el6", category: CategoryCompilers, summary: "Python MPI bindings (Open MPI)", requires: []string{"mpi4py-common", "openmpi"}},
	{name: "mpich2", version: "1.9-1.el6", category: CategoryCompilers, summary: "MPICH2 MPI implementation", requires: []string{"gcc"}, provides: []string{"mpi"}},
	{name: "openmpi", version: "1.6.4-3.el6", category: CategoryCompilers, summary: "Open MPI (mpirun)",
		requires: []string{"gcc", "librdmacm", "libibverbs", "numactl"}, provides: []string{"mpi"}},
	{name: "psm", version: "3.2.7-1.el6", category: CategoryCompilers, summary: "PSM API (Intel/QLogic messaging)"},
	{name: "numactl", version: "2.0.7-8.el6", category: CategoryCompilers, summary: "NUMA policy control"},
	{name: "librdmacm", version: "1.0.18-1.el6", category: CategoryCompilers, summary: "RDMA connection manager"},
	{name: "libibverbs", version: "1.1.7-1.el6", category: CategoryCompilers, summary: "InfiniBand verbs"},
	{name: "papi", version: "5.1.1-1.el6", category: CategoryCompilers, summary: "Performance API counters"},
	{name: "python", version: "2.6.6-52.el6", category: CategoryCompilers, summary: "Python 2.6 (system)"},
	{name: "tcl", version: "8.5.7-6.el6", category: CategoryCompilers, summary: "Tcl scripting language"},
	{name: "R", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R statistical environment", requires: []string{"R-core"}},
	{name: "R-core", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R core runtime", requires: []string{"libRmath", "libgfortran"}},
	{name: "R-core-devel", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R core headers", requires: []string{"R-core"}},
	{name: "R-devel", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R development metapackage", requires: []string{"R", "R-core-devel"}},
	{name: "R-java", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R with Java support", requires: []string{"R", "java-1.7.0-openjdk"}},
	{name: "R-java-devel", version: "3.0.1-2.el6", category: CategoryCompilers, summary: "R Java headers", requires: []string{"R-java"}},

	// --- Scientific Applications (Table 2) ---
	{name: "BEDTools", version: "2.19.1-1.el6", category: CategorySciApps, summary: "Genome arithmetic toolkit"},
	{name: "GotoBLAS2", version: "1.13-5.el6", category: CategorySciApps, summary: "Optimized BLAS"},
	{name: "PLAPACK", version: "3.2-1.el6", category: CategorySciApps, summary: "Parallel linear algebra", requires: []string{"mpi"}},
	{name: "PnetCDF", version: "1.4.1-1.el6", category: CategorySciApps, summary: "Parallel NetCDF", requires: []string{"mpi"}},
	{name: "abyss", version: "1.3.7-1.el6", category: CategorySciApps, summary: "De novo sequence assembler", requires: []string{"boost", "openmpi"}},
	{name: "arpack", version: "3.1.3-1.el6", category: CategorySciApps, summary: "Large-scale eigenvalue solver", requires: []string{"libgfortran"}},
	{name: "atlas", version: "3.8.4-2.el6", category: CategorySciApps, summary: "Automatically tuned BLAS"},
	{name: "autodocksuite", version: "4.2.5.1-1.el6", category: CategorySciApps, summary: "Molecular docking"},
	{name: "boost", version: "1.41.0-18.el6", category: CategorySciApps, summary: "C++ libraries"},
	{name: "bowtie", version: "1.0.0-1.el6", category: CategorySciApps, summary: "Short-read aligner"},
	{name: "bwa", version: "0.7.5a-1.el6", category: CategorySciApps, summary: "Burrows-Wheeler aligner"},
	{name: "darshan-runtime-mpich", version: "2.3.1-1.el6", category: CategorySciApps, summary: "I/O characterization (MPICH)", requires: []string{"mpich2"}},
	{name: "darshan-runtime-openmpi", version: "2.3.1-1.el6", category: CategorySciApps, summary: "I/O characterization (Open MPI)", requires: []string{"openmpi"}},
	{name: "darshan-util", version: "2.3.1-1.el6", category: CategorySciApps, summary: "Darshan log utilities"},
	{name: "libgfortran", version: "4.4.7-11.el6", category: CategorySciApps, summary: "Fortran runtime"},
	{name: "libgomp", version: "4.4.7-11.el6", category: CategorySciApps, summary: "OpenMP runtime"},
	{name: "elemental", version: "0.83-1.el6", category: CategorySciApps, summary: "Distributed-memory linear algebra", requires: []string{"openmpi"}},
	{name: "espresso-ab", version: "5.0.2-1.el6", category: CategorySciApps, summary: "Quantum ESPRESSO ab initio suite", requires: []string{"openmpi", "fftw"}},
	{name: "gatk", version: "3.1.1-1.el6", category: CategorySciApps, summary: "Genome Analysis Toolkit", requires: []string{"java-1.7.0-openjdk"}},
	{name: "glpk", version: "4.40-1.1.el6", category: CategorySciApps, summary: "GNU linear programming kit"},
	{name: "gnuplot", version: "4.2.6-2.el6", category: CategorySciApps, summary: "Plotting utility", requires: []string{"gnuplot-common", "gd"}},
	{name: "libXpm", version: "3.5.10-2.el6", category: CategorySciApps, summary: "X pixmap library"},
	{name: "gd", version: "2.0.35-11.el6", category: CategorySciApps, summary: "Graphics drawing library", requires: []string{"libXpm", "giflib"}},
	{name: "gnuplot-common", version: "4.2.6-2.el6", category: CategorySciApps, summary: "Gnuplot common files"},
	{name: "gromacs", version: "4.6.5-2.el6", category: CategorySciApps, summary: "Molecular dynamics", requires: []string{"gromacs-common", "gromacs-libs", "openmpi"}},
	{name: "gromacs-common", version: "4.6.5-2.el6", category: CategorySciApps, summary: "GROMACS shared files"},
	{name: "gromacs-libs", version: "4.6.5-2.el6", category: CategorySciApps, summary: "GROMACS libraries", requires: []string{"fftw"}},
	{name: "hmmer", version: "3.1b1-1.el6", category: CategorySciApps, summary: "Profile HMM sequence search"},
	{name: "lammps", version: "20140801-1.el6", category: CategorySciApps, summary: "Molecular dynamics simulator", requires: []string{"lammps-common", "openmpi"}},
	{name: "lammps-common", version: "20140801-1.el6", category: CategorySciApps, summary: "LAMMPS potentials and docs"},
	{name: "libgtextutils", version: "0.6.1-1.el6", category: CategorySciApps, summary: "Gordon text utilities library"},
	{name: "lua", version: "5.1.4-4.1.el6", category: CategorySciApps, summary: "Lua language"},
	{name: "meep", version: "1.2.1-1.el6", category: CategorySciApps, summary: "FDTD electromagnetic simulation", requires: []string{"hdf5"}},
	{name: "mpiblast", version: "1.6.0-1.el6", category: CategorySciApps, summary: "Parallel BLAST", requires: []string{"openmpi", "ncbi-blast"}},
	{name: "mrbayes", version: "3.2.2-1.el6", category: CategorySciApps, summary: "Bayesian phylogenetics", requires: []string{"openmpi"}},
	{name: "ncbi-blast", version: "2.2.29-1.el6", category: CategorySciApps, summary: "NCBI BLAST+"},
	{name: "ncl", version: "6.1.2-1.el6", category: CategorySciApps, summary: "NCAR command language", requires: []string{"ncl-common", "netcdf"}},
	{name: "ncl-common", version: "6.1.2-1.el6", category: CategorySciApps, summary: "NCL common files"},
	{name: "nco", version: "4.3.1-1.el6", category: CategorySciApps, summary: "NetCDF operators", requires: []string{"netcdf"}},
	{name: "netcdf", version: "4.1.1-3.el6", category: CategorySciApps, summary: "Scientific data format", requires: []string{"hdf5"}},
	{name: "numpy", version: "1.4.1-9.el6", category: CategorySciApps, summary: "Python numerics", requires: []string{"python"}},
	{name: "octave", version: "3.4.3-3.el6", category: CategorySciApps, summary: "Numerical computing environment", requires: []string{"fftw", "gnuplot", "libgfortran"}},
	{name: "petsc", version: "3.4.4-1.el6", category: CategorySciApps, summary: "PDE solver toolkit", requires: []string{"openmpi"}},
	{name: "picard-tools", version: "1.110-1.el6", category: CategorySciApps, summary: "SAM/BAM manipulation", requires: []string{"java-1.7.0-openjdk"}},
	{name: "plplot", version: "5.9.7-1.el6", category: CategorySciApps, summary: "Scientific plotting"},
	{name: "libtool-ltdl", version: "2.2.6-15.5.el6", category: CategorySciApps, summary: "Libtool runtime loader"},
	{name: "saga", version: "2.1.0-1.el6", category: CategorySciApps, summary: "GIS analysis", requires: []string{"wxBase3", "wxGTK3", "libmspack"}},
	{name: "libmspack", version: "0.4-0.1.el6", category: CategorySciApps, summary: "Microsoft compression formats"},
	{name: "wxBase3", version: "3.0.0-1.el6", category: CategorySciApps, summary: "wxWidgets 3 base"},
	{name: "wxGTK3", version: "3.0.0-1.el6", category: CategorySciApps, summary: "wxWidgets 3 GTK", requires: []string{"wxBase3"}},
	{name: "samtools", version: "0.1.19-1.el6", category: CategorySciApps, summary: "SAM/BAM utilities"},
	{name: "scalapack-common", version: "1.7.5-10.el6", category: CategorySciApps, summary: "ScaLAPACK common files", requires: []string{"openmpi"}},
	{name: "shrimp", version: "2.2.3-1.el6", category: CategorySciApps, summary: "SHRiMP short-read mapper"},
	{name: "slepc", version: "3.4.4-1.el6", category: CategorySciApps, summary: "Eigenvalue computations on PETSc", requires: []string{"petsc"}},
	{name: "sparsehash-devel", version: "2.0.2-1.el6", category: CategorySciApps, summary: "Google sparse hash headers"},
	{name: "sprng", version: "2.0b-1.el6", category: CategorySciApps, summary: "Scalable parallel RNG"},
	{name: "sratoolkit", version: "2.3.5-1.el6", category: CategorySciApps, summary: "NCBI sequence read archive tools"},
	{name: "sundials", version: "2.5.0-1.el6", category: CategorySciApps, summary: "ODE/DAE solvers"},
	{name: "trinity", version: "20140413-1.el6", category: CategorySciApps, summary: "TrinityRNASeq assembler", requires: []string{"bowtie", "samtools", "java-1.7.0-openjdk"}},
	{name: "valgrind", version: "3.8.1-3.el6", category: CategorySciApps, summary: "Memory debugger"},

	// --- Miscellaneous Tools (Table 2) ---
	{name: "ant", version: "1.7.1-13.el6", category: CategoryMisc, summary: "Apache Ant build tool", requires: []string{"java-1.7.0-openjdk", "jpackage-utils"}},
	{name: "giflib", version: "4.1.6-3.1.el6", category: CategoryMisc, summary: "GIF library"},
	{name: "libesmtp", version: "1.0.4-15.el6", category: CategoryMisc, summary: "SMTP client library"},
	{name: "libicu", version: "4.2.1-9.1.el6", category: CategoryMisc, summary: "Unicode components"},
	{name: "pulseaudio-libs", version: "0.9.21-14.el6", category: CategoryMisc, summary: "PulseAudio client libraries", requires: []string{"libasyncns", "libsndfile"}},
	{name: "libasyncns", version: "0.8-1.1.el6", category: CategoryMisc, summary: "Async name service library"},
	{name: "libsndfile", version: "1.0.20-5.el6", category: CategoryMisc, summary: "Sound file library", requires: []string{"libvorbis", "flac"}},
	{name: "libvorbis", version: "1.2.3-4.el6", category: CategoryMisc, summary: "Vorbis codec", requires: []string{"libogg"}},
	{name: "flac", version: "1.2.1-6.1.el6", category: CategoryMisc, summary: "FLAC codec", requires: []string{"libogg"}},
	{name: "libogg", version: "1.1.4-2.1.el6", category: CategoryMisc, summary: "Ogg container"},
	{name: "libXtst", version: "1.2.1-2.el6", category: CategoryMisc, summary: "X test extension"},
	{name: "rhino", version: "1.7-0.7.r2.2.el6", category: CategoryMisc, summary: "JavaScript for Java", requires: []string{"java-1.7.0-openjdk"}},
	{name: "jpackage-utils", version: "1.7.5-3.12.el6", category: CategoryMisc, summary: "Java packaging utilities"},
	{name: "jline", version: "0.9.94-0.8.el6", category: CategoryMisc, summary: "Java console input", requires: []string{"java-1.7.0-openjdk"}},
	{name: "tzdata-java", version: "2014g-1.el6", category: CategoryMisc, summary: "Java timezone data"},
	{name: "wxBase", version: "2.8.12-1.el6", category: CategoryMisc, summary: "wxWidgets 2.8 base"},
	{name: "wxGTK", version: "2.8.12-1.el6", category: CategoryMisc, summary: "wxWidgets 2.8 GTK", requires: []string{"wxBase"}},
	{name: "wxGTK-devel", version: "2.8.12-1.el6", category: CategoryMisc, summary: "wxWidgets 2.8 headers", requires: []string{"wxGTK"}},
	{name: "xorg-x11-fonts-Type1", version: "7.2-9.1.el6", category: CategoryMisc, summary: "X Type1 fonts", requires: []string{"xorg-x11-fonts-utils"}},
	{name: "xorg-x11-fonts-utils", version: "7.2-11.el6", category: CategoryMisc, summary: "X font utilities"},

	// --- XSEDE Tools (Table 2) ---
	{name: "globus-connect-server", version: "2.0.63-1.el6", category: CategoryXSEDE, summary: "Globus data transfer endpoint"},
	{name: "genesis2", version: "2.7.1-1.el6", category: CategoryXSEDE, summary: "Genesis II grid client", requires: []string{"java-1.7.0-openjdk"}},
	{name: "gffs", version: "2.7.1-1.el6", category: CategoryXSEDE, summary: "Global Federated File System", requires: []string{"genesis2"}},

	// --- Rocks optional roll contents (Table 1 part 1) ---
	{name: "tripwire", version: "2.4.2.2-1.el6", category: CategoryRollPkg, summary: "File integrity checker (area51 roll)"},
	{name: "chkrootkit", version: "0.49-9.el6", category: CategoryRollPkg, summary: "Rootkit scanner (area51 roll)"},
	{name: "biopython", version: "1.63-1.el6", category: CategoryRollPkg, summary: "Python bioinformatics (bio roll)", requires: []string{"python", "numpy"}},
	{name: "clustalw", version: "2.1-1.el6", category: CategoryRollPkg, summary: "Multiple sequence alignment (bio roll)"},
	{name: "fingerprint-deps", version: "1.0-1.el6", category: CategoryRollPkg, summary: "Application dependency fingerprinting (fingerprint roll)"},
	{name: "htcondor", version: "8.0.6-1.el6", category: CategoryRollPkg, summary: "High-throughput computing (htcondor roll)"},
	{name: "ganglia-gmond", version: "3.6.0-1.el6", category: CategoryRollPkg, summary: "Ganglia node agent (ganglia roll)"},
	{name: "ganglia-gmetad", version: "3.6.0-1.el6", category: CategoryRollPkg, summary: "Ganglia aggregator (ganglia roll)", requires: []string{"ganglia-gmond", "rrdtool"}},
	{name: "rrdtool", version: "1.3.8-7.el6", category: CategoryRollPkg, summary: "Round-robin database"},
	{name: "stream", version: "5.10-1.el6", category: CategoryRollPkg, summary: "Memory bandwidth benchmark (hpc roll)"},
	{name: "iozone", version: "3.424-1.el6", category: CategoryRollPkg, summary: "Filesystem benchmark (hpc roll)"},
	{name: "mpitests", version: "3.2-6.el6", category: CategoryRollPkg, summary: "MPI test suite (hpc roll)", requires: []string{"mpi"}},
	{name: "qemu-kvm", version: "0.12.1.2-2.415.el6", category: CategoryRollPkg, summary: "KVM hypervisor (kvm roll)"},
	{name: "libvirt", version: "0.10.2-29.el6", category: CategoryRollPkg, summary: "Virtualization API (kvm roll)", requires: []string{"qemu-kvm"}},
	{name: "perl", version: "5.10.1-136.el6", category: CategoryRollPkg, summary: "Perl language (perl roll)"},
	{name: "perl-CPAN", version: "1.9402-136.el6", category: CategoryRollPkg, summary: "CPAN support (perl roll)", requires: []string{"perl"}},
	{name: "perl-DBI", version: "1.609-4.el6", category: CategoryRollPkg, summary: "Perl database interface (perl roll)", requires: []string{"perl"}},
	{name: "python27", version: "2.7.8-1.el6", category: CategoryRollPkg, summary: "Python 2.7 (python roll)"},
	{name: "python3", version: "3.3.2-1.el6", category: CategoryRollPkg, summary: "Python 3.x (python roll)"},
	{name: "httpd", version: "2.2.15-39.el6", category: CategoryRollPkg, summary: "Apache web server (web-server roll)"},
	{name: "mod_ssl", version: "2.2.15-39.el6", category: CategoryRollPkg, summary: "Apache TLS (web-server roll)", requires: []string{"httpd"}},
	{name: "spl", version: "0.6.2-1.el6", category: CategoryRollPkg, summary: "Solaris porting layer (zfs-linux roll)"},
	{name: "zfs", version: "0.6.2-1.el6", category: CategoryRollPkg, summary: "ZFS on Linux (zfs-linux roll)", requires: []string{"spl"}},
}

// catalogOnce guards the one-time build of the package universe. The
// package objects are immutable by contract (mutation goes through Clone),
// so every caller can share them; each Catalog call still hands out a fresh
// slice so reordering or appending never aliases across callers.
var (
	//detlint:global one-time build of the static catalog; the packages are immutable and Catalog hands out fresh slices
	catalogOnce sync.Once
	catalogPkgs []*rpm.Package
)

// Catalog returns the complete XNIT package universe. The packages are
// built once and shared — they are immutable once constructed; use Clone
// before modifying one.
func Catalog() []*rpm.Package {
	catalogOnce.Do(func() { catalogPkgs = buildCatalog() })
	out := make([]*rpm.Package, len(catalogPkgs))
	copy(out, catalogPkgs)
	return out
}

func buildCatalog() []*rpm.Package {
	out := make([]*rpm.Package, 0, len(catalogEntries))
	for _, e := range catalogEntries {
		b := rpm.NewPackage(e.name, e.version, rpm.ArchX86_64).
			Summary(e.summary).
			Category(e.category).
			Size(int64(1<<20 + len(e.name)*4096))
		for _, r := range e.requires {
			cap, err := rpm.ParseCapability(r)
			if err != nil {
				panic(fmt.Sprintf("core: bad requires %q in catalog entry %s: %v", r, e.name, err))
			}
			b.Requires(cap)
		}
		for _, p := range e.provides {
			b.Provides(rpm.Cap(p))
		}
		for _, c := range e.conflicts {
			b.Conflicts(rpm.Cap(c))
		}
		out = append(out, b.Build())
	}
	return out
}

// CatalogByName indexes a catalog by package name.
func CatalogByName(pkgs []*rpm.Package) map[string]*rpm.Package {
	out := make(map[string]*rpm.Package, len(pkgs))
	for _, p := range pkgs {
		out[p.Name] = p
	}
	return out
}
