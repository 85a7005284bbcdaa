/* One unit-CFL step of the stochastic Maxwell-Bloch system, stages (1)-(5)
 * of sfase.solver, for one realization.
 *
 * Every node's update reads only the input state at that node and its
 * upstream neighbours, so the whole step is one pass over the nodes.  Each
 * expression keeps the operation order of the numpy formulation it replaces
 * (tests/reference_step.py), including numpy's complex promotion: a real or
 * imaginary scalar times a complex value is a full complex product with a
 * zero part, so an inf or NaN spreads the way it does in numpy.  Built
 * with -ffp-contract=off and no -ffast-math, the results then differ from
 * numpy's only where libm's exp differs from numpy's vectorised exp.
 *
 * Arrays are C-contiguous float64; a complex array is interleaved (re, im)
 * pairs, rows forward (+) then backward (-).  Shapes, in doubles:
 * pop (3, n), coh and omega (2, 2n), jp (n).
 *
 * Stage (5)'s standard normals are drawn here, from the v1 noise stream
 * that sfase.solver.noise_normals defines with numpy: a Philox4x64-10
 * generator keyed by the master seed, its counter set to
 * (0, 0, realization index, step), read by numpy's 256-layer ziggurat.
 * The code below repeats numpy's generator and ziggurat operation for
 * operation, so the draws are bitwise equal to numpy's.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's minimum and maximum: a NaN in either argument is the result */
static double np_minimum(double a, double b) { return (a <= b || isnan(a)) ? a : b; }
static double np_maximum(double a, double b) { return (a >= b || isnan(a)) ? a : b; }

/* complex product (ar + i ai)(br + i bi), as numpy forms it */
#define CMUL_RE(ar, ai, br, bi) ((ar) * (br) - (ai) * (bi))
#define CMUL_IM(ar, ai, br, bi) ((ar) * (bi) + (ai) * (br))

/* Bloch right-hand side at one node: d11 and d(rho21) per direction.
 * d11 = gamma*r22 + sum_d Im(omega_d conj(coh_d));
 * dcoh_d = (-gamma/2) coh_d - (0.5i (r22 - r11)) omega_d. */
static void bloch_rhs(double r11, double r22, double coh[2][2],
                      double omega[2][2], double gamma,
                      double *d11, double dcoh[2][2])
{
    double g = -0.5 * gamma;
    double diff = r22 - r11;
    double sre = CMUL_RE(0.0, 0.5, diff, 0.0);
    double sim = CMUL_IM(0.0, 0.5, diff, 0.0);
    double im[2];
    for (int d = 0; d < 2; d++) {
        double cr = coh[d][0], ci = -coh[d][1];
        double or_ = omega[d][0], oi = omega[d][1];
        im[d] = CMUL_IM(or_, oi, cr, ci);
        double are = CMUL_RE(g, 0.0, coh[d][0], coh[d][1]);
        double aim = CMUL_IM(g, 0.0, coh[d][0], coh[d][1]);
        dcoh[d][0] = are - CMUL_RE(sre, sim, or_, oi);
        dcoh[d][1] = aim - CMUL_IM(sre, sim, or_, oi);
    }
    *d11 = gamma * r22 + (im[0] + im[1]);
}

/* ------------------------------------------------------------------------
 * v1 noise: numpy's Philox4x64-10 stream and standard-normal ziggurat
 * ------------------------------------------------------------------------ */

/* the full 128-bit product a*b: the low word is returned, the high word
 * stored in *hi */
static inline uint64_t mulhilo64(uint64_t a, uint64_t b, uint64_t *hi)
{
#if defined(__SIZEOF_INT128__)
    __uint128_t product = (__uint128_t)a * b;
    *hi = (uint64_t)(product >> 64);
    return (uint64_t)product;
#else
    /* schoolbook multiplication on 32-bit limbs */
    uint64_t a_lo = a & 0xFFFFFFFFu, a_hi = a >> 32;
    uint64_t b_lo = b & 0xFFFFFFFFu, b_hi = b >> 32;
    uint64_t lo_lo = a_lo * b_lo, hi_lo = a_hi * b_lo;
    uint64_t lo_hi = a_lo * b_hi, hi_hi = a_hi * b_hi;
    uint64_t mid = (lo_lo >> 32) + (hi_lo & 0xFFFFFFFFu) + (lo_hi & 0xFFFFFFFFu);
    *hi = hi_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32);
    return a * b;
#endif
}

/* numpy's Philox bit generator: a 4-word counter and 2-word key, and a
 * buffer of the four words of the last block */
typedef struct {
    uint64_t ctr[4], key[2], buffer[4];
    int buffer_pos;
} philox_state;

/* Philox4x64-10 (Salmon et al., SC'11), as Random123 and numpy define it */
static void philox4x64_10(const uint64_t ctr[4], const uint64_t key[2],
                          uint64_t out[4])
{
    uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
    uint64_t k0 = key[0], k1 = key[1];
    for (int round = 0; round < 10; round++) {
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo64(0xD2E7470EE14C6C93ULL, c0, &hi0);
        uint64_t lo1 = mulhilo64(0xCA5A826395121157ULL, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
        /* the key schedule; the bump after the last round goes unused */
        k0 += 0x9E3779B97F4A7C15ULL;
        k1 += 0xBB67AE8584CAA73BULL;
    }
    out[0] = c0; out[1] = c1; out[2] = c2; out[3] = c3;
}

/* numpy's next_uint64: the buffered words first, then increment the
 * counter (with carry) and generate the next block */
static inline uint64_t philox_next64(philox_state *s)
{
    if (s->buffer_pos < 4)
        return s->buffer[s->buffer_pos++];
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
        ++s->ctr[3];
    philox4x64_10(s->ctr, s->key, s->buffer);
    s->buffer_pos = 1;
    return s->buffer[0];
}

/* numpy's next_double: 53 random bits in [0, 1) */
static inline double philox_next_double(philox_state *s)
{
    return (double)(philox_next64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* The ziggurat tables of numpy 2.4.6, numpy/random/src/distributions/
 * ziggurat_constants.h: Copyright (c) 2005-2017 NumPy Developers,
 * BSD-3-Clause; the method derives from Julia's (MIT).  See
 * numpy/random/src/distributions/LICENSE.md in numpy's distribution.
 * They were read bit for bit from the .rodata of the distributions object
 * in numpy's bundled numpy/random/lib/libnpyrandom.a (symbols ki_double,
 * wi_double, fi_double) and printed as shortest round-trip literals.  The
 * exact comparison with numpy's draws in tests/test_kernel.py is the
 * authority on them.  The Philox constants above are Random123's
 * (D. E. Shaw Research, BSD-3-Clause). */
static const uint64_t ki_double[256] = {
    0x000EF33D8025EF6AULL, 0x0000000000000000ULL, 0x000C08BE98FBC6A8ULL,
    0x000DA354FABD8142ULL, 0x000E51F67EC1EEEAULL, 0x000EB255E9D3F77EULL,
    0x000EEF4B817ECAB9ULL, 0x000F19470AFA44AAULL, 0x000F37ED61FFCB18ULL,
    0x000F4F469561255CULL, 0x000F61A5E41BA396ULL, 0x000F707A755396A4ULL,
    0x000F7CB2EC28449AULL, 0x000F86F10C6357D3ULL, 0x000F8FA6578325DEULL,
    0x000F9724C74DD0DAULL, 0x000F9DA907DBF509ULL, 0x000FA360F581FA74ULL,
    0x000FA86FDE5B4BF8ULL, 0x000FACF160D354DCULL, 0x000FB0FB6718B90FULL,
    0x000FB49F8D5374C6ULL, 0x000FB7EC2366FE77ULL, 0x000FBAECE9A1E50EULL,
    0x000FBDAB9D040BEDULL, 0x000FC03060FF6C57ULL, 0x000FC2821037A248ULL,
    0x000FC4A67AE25BD1ULL, 0x000FC6A2977AEE31ULL, 0x000FC87AA92896A4ULL,
    0x000FCA325E4BDE85ULL, 0x000FCBCCE902231AULL, 0x000FCD4D12F839C4ULL,
    0x000FCEB54D8FEC99ULL, 0x000FD007BF1DC930ULL, 0x000FD1464DD6C4E6ULL,
    0x000FD272A8E2F450ULL, 0x000FD38E4FF0C91EULL, 0x000FD49A9990B478ULL,
    0x000FD598B8920F53ULL, 0x000FD689C08E99ECULL, 0x000FD76EA9C8E832ULL,
    0x000FD848547B08E8ULL, 0x000FD9178BAD2C8CULL, 0x000FD9DD07A7ADD2ULL,
    0x000FDA9970105E8CULL, 0x000FDB4D5DC02E20ULL, 0x000FDBF95C5BFCD0ULL,
    0x000FDC9DEBB99A7DULL, 0x000FDD3B8118729DULL, 0x000FDDD288342F90ULL,
    0x000FDE6364369F64ULL, 0x000FDEEE708D514EULL, 0x000FDF7401A6B42EULL,
    0x000FDFF46599ED40ULL, 0x000FE06FE4BC24F2ULL, 0x000FE0E6C225A258ULL,
    0x000FE1593C28B84CULL, 0x000FE1C78CBC3F99ULL, 0x000FE231E9DB1CAAULL,
    0x000FE29885DA1B91ULL, 0x000FE2FB8FB54186ULL, 0x000FE35B33558D4AULL,
    0x000FE3B799D0002AULL, 0x000FE410E99EAD7FULL, 0x000FE46746D47734ULL,
    0x000FE4BAD34C095CULL, 0x000FE50BAED29524ULL, 0x000FE559F74EBC78ULL,
    0x000FE5A5C8E41212ULL, 0x000FE5EF3E138689ULL, 0x000FE6366FD91078ULL,
    0x000FE67B75C6D578ULL, 0x000FE6BE661E11AAULL, 0x000FE6FF55E5F4F2ULL,
    0x000FE73E5900A702ULL, 0x000FE77B823E9E39ULL, 0x000FE7B6E37070A2ULL,
    0x000FE7F08D774243ULL, 0x000FE8289053F08CULL, 0x000FE85EFB35173AULL,
    0x000FE893DC840864ULL, 0x000FE8C741F0CEBCULL, 0x000FE8F9387D4EF6ULL,
    0x000FE929CC879B1DULL, 0x000FE95909D388EAULL, 0x000FE986FB939AA2ULL,
    0x000FE9B3AC714866ULL, 0x000FE9DF2694B6D5ULL, 0x000FEA0973ABE67CULL,
    0x000FEA329CF166A4ULL, 0x000FEA5AAB32952CULL, 0x000FEA81A6D5741AULL,
    0x000FEAA797DE1CF0ULL, 0x000FEACC85F3D920ULL, 0x000FEAF07865E63CULL,
    0x000FEB13762FEC13ULL, 0x000FEB3585FE2A4AULL, 0x000FEB56AE3162B4ULL,
    0x000FEB76F4E284FAULL, 0x000FEB965FE62014ULL, 0x000FEBB4F4CF9D7CULL,
    0x000FEBD2B8F449D0ULL, 0x000FEBEFB16E2E3EULL, 0x000FEC0BE31EBDE8ULL,
    0x000FEC2752B15A15ULL, 0x000FEC42049DAFD3ULL, 0x000FEC5BFD29F196ULL,
    0x000FEC75406CEEF4ULL, 0x000FEC8DD2500CB4ULL, 0x000FECA5B6911F12ULL,
    0x000FECBCF0C427FEULL, 0x000FECD38454FB15ULL, 0x000FECE97488C8B3ULL,
    0x000FECFEC47F91B7ULL, 0x000FED1377358528ULL, 0x000FED278F844903ULL,
    0x000FED3B10242F4CULL, 0x000FED4DFBAD586EULL, 0x000FED605498C3DDULL,
    0x000FED721D414FE8ULL, 0x000FED8357E4A982ULL, 0x000FED9406A42CC8ULL,
    0x000FEDA42B85B704ULL, 0x000FEDB3C8746AB4ULL, 0x000FEDC2DF416652ULL,
    0x000FEDD171A46E52ULL, 0x000FEDDF813C8AD3ULL, 0x000FEDED0F909980ULL,
    0x000FEDFA1E0FD414ULL, 0x000FEE06AE124BC4ULL, 0x000FEE12C0D95A06ULL,
    0x000FEE1E579006E0ULL, 0x000FEE29734B6524ULL, 0x000FEE34150AE4BCULL,
    0x000FEE3E3DB89B3CULL, 0x000FEE47EE2982F4ULL, 0x000FEE51271DB086ULL,
    0x000FEE59E9407F41ULL, 0x000FEE623528B42EULL, 0x000FEE6A0B5897F1ULL,
    0x000FEE716C3E077AULL, 0x000FEE7858327B82ULL, 0x000FEE7ECF7B06BAULL,
    0x000FEE84D2484AB2ULL, 0x000FEE8A60B66343ULL, 0x000FEE8F7ACCC851ULL,
    0x000FEE94207E25DAULL, 0x000FEE9851A829EAULL, 0x000FEE9C0E13485CULL,
    0x000FEE9F557273F4ULL, 0x000FEEA22762CCAEULL, 0x000FEEA4836B42ACULL,
    0x000FEEA668FC2D71ULL, 0x000FEEA7D76ED6FAULL, 0x000FEEA8CE04FA0AULL,
    0x000FEEA94BE8333BULL, 0x000FEEA950296410ULL, 0x000FEEA8D9C0075EULL,
    0x000FEEA7E7897654ULL, 0x000FEEA678481D24ULL, 0x000FEEA48AA29E83ULL,
    0x000FEEA21D22E4DAULL, 0x000FEE9F2E352024ULL, 0x000FEE9BBC26AF2EULL,
    0x000FEE97C524F2E4ULL, 0x000FEE93473C0A3AULL, 0x000FEE8E40557516ULL,
    0x000FEE88AE369C7AULL, 0x000FEE828E7F3DFDULL, 0x000FEE7BDEA7B888ULL,
    0x000FEE749BFF37FFULL, 0x000FEE6CC3A9BD5EULL, 0x000FEE64529E007EULL,
    0x000FEE5B45A32888ULL, 0x000FEE51994E57B6ULL, 0x000FEE474A0006CFULL,
    0x000FEE3C53E12C50ULL, 0x000FEE30B2E02AD8ULL, 0x000FEE2462AD8205ULL,
    0x000FEE175EB83C5AULL, 0x000FEE09A22A1447ULL, 0x000FEDFB27E349CCULL,
    0x000FEDEBEA76216CULL, 0x000FEDDBE422047EULL, 0x000FEDCB0ECE39D3ULL,
    0x000FEDB964042CF4ULL, 0x000FEDA6DCE938C9ULL, 0x000FED937237E98DULL,
    0x000FED7F1C38A836ULL, 0x000FED69D2B9C02BULL, 0x000FED538D06AE00ULL,
    0x000FED3C41DEA422ULL, 0x000FED23E76A2FD8ULL, 0x000FED0A732FE644ULL,
    0x000FECEFDA07FE34ULL, 0x000FECD4100EB7B8ULL, 0x000FECB708956EB4ULL,
    0x000FEC98B61230C1ULL, 0x000FEC790A0DA978ULL, 0x000FEC57F50F31FEULL,
    0x000FEC356686C962ULL, 0x000FEC114CB4B335ULL, 0x000FEBEB948E6FD0ULL,
    0x000FEBC429A0B692ULL, 0x000FEB9AF5EE0CDCULL, 0x000FEB6FE1C98542ULL,
    0x000FEB42D3AD1F9EULL, 0x000FEB13B00B2D4BULL, 0x000FEAE2591A02E9ULL,
    0x000FEAAEAE992257ULL, 0x000FEA788D8EE326ULL, 0x000FEA3FCFFD73E5ULL,
    0x000FEA044C8DD9F6ULL, 0x000FE9C5D62F563BULL, 0x000FE9843BA947A4ULL,
    0x000FE93F471D4728ULL, 0x000FE8F6BD76C5D6ULL, 0x000FE8AA5DC4E8E6ULL,
    0x000FE859E07AB1EAULL, 0x000FE804F690A940ULL, 0x000FE7AB488233C0ULL,
    0x000FE74C751F6AA5ULL, 0x000FE6E8102AA202ULL, 0x000FE67DA0B6ABD8ULL,
    0x000FE60C9F38307EULL, 0x000FE5947338F742ULL, 0x000FE51470977280ULL,
    0x000FE48BD436F458ULL, 0x000FE3F9BFFD1E37ULL, 0x000FE35D35EEB19CULL,
    0x000FE2B5122FE4FEULL, 0x000FE20003995557ULL, 0x000FE13C82788314ULL,
    0x000FE068C4EE67B0ULL, 0x000FDF82B02B71AAULL, 0x000FDE87C57EFEAAULL,
    0x000FDD7509C63BFDULL, 0x000FDC46E529BF13ULL, 0x000FDAF8F82E0282ULL,
    0x000FD985E1B2BA75ULL, 0x000FD7E6EF48CF04ULL, 0x000FD613ADBD650BULL,
    0x000FD40149E2F012ULL, 0x000FD1A1A7B4C7ACULL, 0x000FCEE204761F9EULL,
    0x000FCBA8D85E11B2ULL, 0x000FC7D26ECD2D22ULL, 0x000FC32B2F1E22EDULL,
    0x000FBD6581C0B83AULL, 0x000FB606C4005434ULL, 0x000FAC40582A2874ULL,
    0x000F9E971E014598ULL, 0x000F89FA48A41DFCULL, 0x000F66C5F7F0302CULL,
    0x000F1A5A4B331C4AULL
};

static const double wi_double[256] = {
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16
};

static const double fi_double[256] = {
    1.0, 0.9771017012676716, 0.9598790918001067,
    0.9451989534422996, 0.9320600759592305, 0.919991505039347,
    0.9087264400521309, 0.8980959218983434, 0.8879846607558334,
    0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834,
    0.8267268339462214, 0.8189291916037024, 0.8113078743126563,
    0.8038494831709643, 0.796542330422959, 0.7893761435660246,
    0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568,
    0.742505296340151, 0.7362075981268627, 0.7299952645614762,
    0.7238645334686302, 0.717811932630722, 0.7118342488782484,
    0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735,
    0.6718617198970821, 0.6663913439087501, 0.6609751477766631,
    0.6556114705796973, 0.6502987431108167, 0.6450354808208223,
    0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139,
    0.6094680649257734, 0.6045553906974678, 0.5996817526191253,
    0.5948462437679874, 0.590047996332826, 0.5852861792633715,
    0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766,
    0.5529104904258323, 0.5484139632552658, 0.5439477311900263,
    0.5395112342569521, 0.5351039323804576, 0.5307253044036621,
    0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681,
    0.5008375751261487, 0.4966715690524897, 0.49253026364386854,
    0.48841328470545803, 0.4843202694266833, 0.48025086590904675,
    0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643,
    0.4523987068618485, 0.44850670150720306, 0.4446355653957394,
    0.440785034665804, 0.43695485254798555, 0.43314476911265226,
    0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816,
    0.40701728432947337, 0.4033597392211145, 0.3997203149801972,
    0.39609881851583245, 0.3924950614593156, 0.3889088600187887,
    0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326,
    0.36428246812900406, 0.36083060098964803, 0.3573948201457805,
    0.3539749808000768, 0.3505709414814061, 0.34718256395679364,
    0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014,
    0.3238914823763911, 0.32062378495690536, 0.3173706380299136,
    0.3141319315963372, 0.3109075581262865, 0.30769741250429206,
    0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829,
    0.28561642681550176, 0.2825165930837076, 0.27943014176163794,
    0.2763569892956683, 0.27329705406857707, 0.27025025636587546,
    0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422,
    0.24928421241852852, 0.24633986350126383, 0.2434080154227503,
    0.2404886059405006, 0.2375815744312381, 0.23468686187233,
    0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113,
    0.21476417525117358, 0.21196607630703018, 0.20917983462112508,
    0.2064054063978808, 0.2036427493103349, 0.2008918224946566,
    0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927,
    0.18196065559952251, 0.17930227452284758, 0.17665532144373486,
    0.17401977008183855, 0.17139559563750575, 0.1687827748012113,
    0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286,
    0.15080929068184568, 0.14828664273257455, 0.14577520800599403,
    0.14327497897351346, 0.1407859498144447, 0.13830811644855073,
    0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657,
    0.1212768054847903, 0.11888861344291006, 0.11651166562561087,
    0.11414597782783849, 0.11179156816383809, 0.1094484571468118,
    0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009,
    0.09336531191269101, 0.09111364806637376, 0.08887359206827589,
    0.08664519445055807, 0.08442850957035347, 0.0822235958132029,
    0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676,
    0.0671246538277885, 0.0650165779712429, 0.06292102443775814,
    0.06083810834953988, 0.05876795292093374, 0.0567106901062029,
    0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463,
    0.04268414491647446, 0.04073611065594094, 0.03880270740452615,
    0.036884215688567305, 0.034980941461716125, 0.03309321945857858,
    0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885,
    0.02035109623004451, 0.018605121275724622, 0.016880083152543142,
    0.01517708830793531, 0.013497450601739867, 0.011842757857907879,
    0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593,
    0.001260285930498598
};

static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

/* x with its sign bit XOR-ed with `bit`: numpy's `if (sign) x = -x`
 * without a branch, which a random sign would mispredict half the time */
static inline double flip_sign(double x, uint64_t bit)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    u ^= bit << 63;
    memcpy(&x, &u, sizeof x);
    return x;
}

/* numpy's random_standard_normal */
static double ziggurat_normal(philox_state *s)
{
    for (;;) {
        uint64_t r = philox_next64(s);
        int idx = r & 0xff;
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = flip_sign((double)rabs * wi_double[idx], r & 0x1);
        if (rabs < ki_double[idx])
            return x; /* 99.3% of the time */
        if (idx == 0) {
            for (;;) {
                /* 1 - U, not U, so that log never sees 0 */
                double xx = -ziggurat_nor_inv_r * log1p(-philox_next_double(s));
                double yy = -log1p(-philox_next_double(s));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx)
                                               : ziggurat_nor_r + xx;
            }
        } else {
            if (((fi_double[idx - 1] - fi_double[idx]) * philox_next_double(s) +
                 fi_double[idx]) < exp(-0.5 * x * x))
                return x;
        }
    }
}

/* numpy's Generator(Philox(key=seed)).standard_normal(size) with the
 * counter set to (0, 0, index, istep) and an empty buffer: size normals
 * into z in row-major order */
static void v1_normals(uint64_t key0, uint64_t key1, uint64_t index,
                       uint64_t istep, size_t size, double *z)
{
    philox_state s = {{0, 0, index, istep}, {key0, key1}, {0, 0, 0, 0}, 4};
    for (size_t i = 0; i < size; i++)
        z[i] = ziggurat_normal(&s);
}

/* One step from (pop, coh, omega, jp) into the *_new arrays.  With noisy
 * set, stage (5) draws the v1 normals of key (key0, key1) = the master
 * seed's low and high 64 bits, realization `index` and step `istep`.
 * Returns 0, or -1 when the normals' buffer cannot be allocated (nothing
 * is written then). */
int sfase_step(int n, double dt, double dz, double gamma, double eta,
               double n_at, double sigma, double noise_prefactor,
               double jp_in, const double *pop, const double *coh,
               const double *omega, const double *jp, int noisy,
               uint64_t key0, uint64_t key1, uint64_t index, uint64_t istep,
               double *pop_new, double *coh_new, double *omega_new,
               double *jp_new)
{
    /* (5)'s normals, rows (Re+, Im+, Re-, Im-) */
    double *z = NULL;
    if (noisy) {
        z = malloc((size_t)4 * n * sizeof(double));
        if (z == NULL)
            return -1;
        v1_normals(key0, key1, index, istep, (size_t)4 * n, z);
    }

    const double *r00 = pop, *r11 = pop + n, *r22 = pop + 2 * n;
    double *r00_new = pop_new, *r11_new = pop_new + n, *r22_new = pop_new + 2 * n;

    /* stages (1)-(2) are skipped once the pump has left the medium: they
     * would give J_p = 0, rho00 unchanged and no influx */
    int pumped = !(jp_in == 0.0);
    for (int k = 0; k < n && !pumped; k++)
        pumped = jp[k] != 0.0;

    double att = -n_at * sigma * dz * 0.5;
    double quarter = -0.25 * dt;
    double sixth = dt / 6.0;
    double decay = exp(-gamma * dt);
    double decay_half = exp(-0.5 * gamma * dt);
    /* the Python complex 0.5j * eta * dz, for finite eta and dz */
    double half_src_re = 0.0, half_src_im = 0.5 * eta * dz;
    double half_dt = 0.5 * dt;

    for (int k = 0; k < n; k++) {
        /* (1) pump advection, trapezoidal Beer-Lambert attenuation;
         * (2) exact ground-state depletion and Simpson-weighted influx */
        double influx11 = 0.0, influx22 = 0.0;
        if (pumped) {
            jp_new[k] = k == 0 ? jp_in
                               : jp[k - 1] * exp(att * (r00[k - 1] + r00[k]));
            double rate0 = sigma * jp[k];
            double rate1 = sigma * jp_new[k];
            double rate_m = 0.5 * (rate0 + rate1);
            double r00_half = r00[k] * exp(quarter * (rate0 + rate_m));
            double r00_k = r00_half * exp(quarter * (rate_m + rate1));
            double delta = r00[k] - r00_k;
            double s0 = rate0 * r00[k];
            double s_mid = rate_m * r00_half;
            double s1 = rate1 * r00_k;
            influx22 = sixth * (s0 * decay + 4.0 * s_mid * decay_half + s1);
            influx22 = np_minimum(influx22, delta);
            influx11 = delta - influx22;
            r00_new[k] = r00_k;
        } else {
            jp_new[k] = jp[k];
            r00_new[k] = r00[k];
        }

        /* (3) field advection with the trapezoidal source; the predicted
         * rho21 at t+dt is also the Heun predictor of stage (4) */
        double c[2][2], o[2][2], c_pred[2][2], o_new[2][2];
        double dcoh[2][2], dcoh_2[2][2], d11, d11_2;
        memcpy(c, coh + 2 * k, 2 * sizeof(double));
        memcpy(c[1], coh + 2 * n + 2 * k, 2 * sizeof(double));
        memcpy(o, omega + 2 * k, 2 * sizeof(double));
        memcpy(o[1], omega + 2 * n + 2 * k, 2 * sizeof(double));
        bloch_rhs(r11[k], r22[k], c, o, gamma, &d11, dcoh);
        for (int d = 0; d < 2; d++) {
            c_pred[d][0] = c[d][0] + CMUL_RE(dt, 0.0, dcoh[d][0], dcoh[d][1]);
            c_pred[d][1] = c[d][1] + CMUL_IM(dt, 0.0, dcoh[d][0], dcoh[d][1]);
        }
        /* the + envelope arrives from node k-1, the - envelope from k+1;
         * nothing enters at z = 0 (+) or z = L (-) */
        for (int d = 0; d < 2; d++) {
            int up = d == 0 ? k - 1 : k + 1;
            if (up < 0 || up >= n) {
                o_new[d][0] = o_new[d][1] = 0.0;
                continue;
            }
            const double *cu = coh + 2 * (d * n + up);
            const double *ou = omega + 2 * (d * n + up);
            double sr = cu[0] + c_pred[d][0], si = cu[1] + c_pred[d][1];
            o_new[d][0] = ou[0] + CMUL_RE(half_src_re, half_src_im, sr, si);
            o_new[d][1] = ou[1] + CMUL_IM(half_src_re, half_src_im, sr, si);
        }

        /* (4) Heun for decay + coupling with the fields at t and t+dt;
         * |1> gains exactly what |2> loses */
        double shift = dt * d11;
        bloch_rhs(r11[k] + shift, r22[k] - shift, c_pred, o_new, gamma,
                  &d11_2, dcoh_2);
        shift = half_dt * (d11 + d11_2);
        r11_new[k] = (r11[k] + shift) + influx11;
        r22_new[k] = (r22[k] - shift) + influx22;
        double scale = 0.0;
        if (z != NULL)
            scale = sqrt(half_dt * (noise_prefactor * np_maximum(r22_new[k], 0.0)));
        for (int d = 0; d < 2; d++) {
            double sr = dcoh[d][0] + dcoh_2[d][0];
            double si = dcoh[d][1] + dcoh_2[d][1];
            double *cn = coh_new + 2 * (d * n + k);
            cn[0] = c[d][0] + CMUL_RE(half_dt, 0.0, sr, si);
            cn[1] = c[d][1] + CMUL_IM(half_dt, 0.0, sr, si);
            double *on = omega_new + 2 * (d * n + k);
            on[0] = o_new[d][0];
            on[1] = o_new[d][1];
            /* (5) spontaneous-emission noise */
            if (z != NULL) {
                cn[0] += z[(2 * d) * n + k] * scale;
                cn[1] += z[(2 * d + 1) * n + k] * scale;
            }
        }
    }
    free(z);
    return 0;
}

/* the compiler that built this file, recorded in run manifests */
const char *sfase_compiler(void)
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}
